package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// calqMatrixDigests pins the sha256 of each matrix run's JSON stats
// snapshot. They were recorded while the engine still carried a binary-heap
// event queue beside the calendar queue, and the two produced these exact
// bytes on every configuration.
var calqMatrixDigests = map[string]string{
	"contended/Random/1cores":    "7d93341eb3df3057221b8ef17162d98cedc0cd1ce01e8b32e88c0bc69a3ad863",
	"contended/Random/4cores":    "ff92f0f9506035ad4d7f4b215df97d83d72910e93012ac3c179811808b2b0021",
	"contended/Random/16cores":   "198ef63b89fffbaffdfc5f0d81bc41615b806dcb335f50639df8494196e6b131",
	"contended/Random/64cores":   "8fe2a8f8b629a53d6e26129a9f4dcc3b3960a664db877c41b79a138d7394c85c",
	"contended/Stealing/1cores":  "7d93341eb3df3057221b8ef17162d98cedc0cd1ce01e8b32e88c0bc69a3ad863",
	"contended/Stealing/4cores":  "ff92f0f9506035ad4d7f4b215df97d83d72910e93012ac3c179811808b2b0021",
	"contended/Stealing/16cores": "1a8825d4d6ce173240ba483f941e990e56759a3e2590edfa5f226caf2bd8fef5",
	"contended/Stealing/64cores": "c12d820ecff84bfb4f4ae9024be009625bacbc3e122a6ccb4a4ee3be4c9103ba",
	"contended/Hints/1cores":     "7d93341eb3df3057221b8ef17162d98cedc0cd1ce01e8b32e88c0bc69a3ad863",
	"contended/Hints/4cores":     "2b6c6356141c07685f135a05b0d543434cfd3c4cb811c2fc0e58c218038f2a38",
	"contended/Hints/16cores":    "3cd036392c07af8b0b79799306e7b14fcd79975568fa3ac83c3c16545bc611a1",
	"contended/Hints/64cores":    "a0a0fda24b9564948dfec5b7f8de3a9fa1faf3337a63941eb3c58aa7c98e7448",
	"contended/LBHints/1cores":   "597e7479e6d158ea7b1bd2bfac4682903deab81f1d5be8cd8112543b6ee033a0",
	"contended/LBHints/4cores":   "9099f3afca1ec903dadf4af07fbdd1841e15cd04276228f8fc219d813a26d653",
	"contended/LBHints/16cores":  "207cf6b417ec10fafd7f4aa40b69fa6ea7d134613fb3643635fadf298d345f81",
	"contended/LBHints/64cores":  "798fe7a488a2984f6a1473f16ce30808991308430719250a496a0e29f2b4feab",
	"tree/Random/1cores":         "80d38f70d3309917d5bdb719e51b675844f315f4304ec7d8eff2a845d2fd13e0",
	"tree/Random/4cores":         "63626ccad4739dc0da2c7c9fdc9b705af5319b5109bce56ebcf5d4103edefe6f",
	"tree/Random/16cores":        "ec3fe8931247de2dc85fa87ba0ea0e66b5c95e2fe50f05f0ba992ced11d62a14",
	"tree/Random/64cores":        "a98c3442026436ee8976b34912caca3ca85cca7c714508f89a807734ee7aa73d",
	"tree/Stealing/1cores":       "80d38f70d3309917d5bdb719e51b675844f315f4304ec7d8eff2a845d2fd13e0",
	"tree/Stealing/4cores":       "63626ccad4739dc0da2c7c9fdc9b705af5319b5109bce56ebcf5d4103edefe6f",
	"tree/Stealing/16cores":      "d0e465278a9105d70d31c20f96e638bc5a0026155d8fb24d935dfbf414c3d7d3",
	"tree/Stealing/64cores":      "6856346a329d67871cce7385bf603953d71267b21613ce25665ecbde2dc5a571",
	"tree/Hints/1cores":          "80d38f70d3309917d5bdb719e51b675844f315f4304ec7d8eff2a845d2fd13e0",
	"tree/Hints/4cores":          "f636a1388830f9840ad42bf64310adbd6ad75ef90a2abe86b27b316ee53a6fd2",
	"tree/Hints/16cores":         "af81ec9fb8408a890084bce6bedeea7df383161a6b6fd95ba4531f88b3127b88",
	"tree/Hints/64cores":         "cae0561e325cdc95bff36edce44b9831cfcfc59d67083055203280d7cffec649",
	"tree/LBHints/1cores":        "25f132be09ee301cd7b94c32b026e6e33d1b43cfd055d0499ca3ffc96e6dc86b",
	"tree/LBHints/4cores":        "111fbbcea292161758bf77c8937ed68813b3ead1e497f9ae111105549e98a7bf",
	"tree/LBHints/16cores":       "12189ea8a916b7bf27f9199ccdb085f21f5fa28c45c4d7ad9380f58e90e5c3bc",
	"tree/LBHints/64cores":       "14d3d21b6835a41e804ac4bb6882e83ec2c2d1f8cbfd06c7672fabbc25620662",
}

// TestCalqDifferentialMatrix is the event queue's acceptance gate: every
// workload × scheduler × core-count configuration must produce statistics
// byte-identical to the binary-heap reference engine's, pinned in
// calqMatrixDigests. With unique (time, seq) event keys the pop sequence is
// a pure function of the push sequence, so any divergence — one cycle, one
// abort, one byte of the snapshot — means the event total order or the
// engine around it changed. calq's pop order itself is checked against a
// reference heap by FuzzVsReferenceHeap in internal/calq.
func TestCalqDifferentialMatrix(t *testing.T) {
	programs := []struct {
		name  string
		build func() (*Program, []Root, uint64)
	}{
		{"contended", func() (*Program, []Root, uint64) { return counterProgram(256, false) }},
		{"tree", func() (*Program, []Root, uint64) { return treeProgram(8) }},
	}
	for _, prog := range programs {
		for _, kind := range allKinds() {
			for _, cores := range []int{1, 4, 16, 64} {
				name := fmt.Sprintf("%s/%s/%dcores", prog.name, kind, cores)
				t.Run(name, func(t *testing.T) {
					p, roots, _ := prog.build()
					st, err := Run(p, roots, testCfg(cores, kind))
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(st.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					got := fmt.Sprintf("%x", sha256.Sum256(b))
					if want := calqMatrixDigests[name]; got != want {
						t.Fatalf("snapshot digest %s, want %s\n%s", got, want, b)
					}
				})
			}
		}
	}
}
