package sim

// This file implements the architecture-independent access-classification
// profiler of Sec. IV-B (Fig. 3) and Sec. V (Fig. 6). It observes the memory
// accesses of *committing* tasks only (aborted attempts do not count), and
// classifies every word two ways: read-only vs. read-write, and single-hint
// vs. multi-hint (>90% of accesses from tasks of a single hint). Task
// arguments are counted as their own category, as in the paper's figures.

import "swarmhints/internal/metrics"

// roRatio is the reads-per-write threshold above which data counts as
// read-only. The paper uses 1000 on billion-cycle runs; our scaled runs use
// a proportionally scaled threshold (results are "mostly insensitive to the
// specific values", Sec. IV-B).
const roRatio = 100

// singleHintFrac is the fraction of accesses that must come from one hint
// for a word to classify as single-hint (90%, Sec. IV-B).
const singleHintFrac = 0.9

// hintSlots is the Misra-Gries heavy-hitter capacity per word. With the 90%
// threshold, four slots identify a dominant hint exactly whenever one
// exists.
const hintSlots = 4

type wordProfile struct {
	reads, writes uint64
	total         uint64 // accesses from hinted tasks (incl. NOHINT pseudo-hints)
	hints         [hintSlots]uint64
	counts        [hintSlots]uint64
	used          int
}

// note records one access from a task with the given (pseudo-)hint using
// the Misra-Gries frequent-elements sketch.
func (w *wordProfile) note(hint uint64, write bool) {
	if write {
		w.writes++
	} else {
		w.reads++
	}
	w.total++
	for i := 0; i < w.used; i++ {
		if w.hints[i] == hint {
			w.counts[i]++
			return
		}
	}
	if w.used < hintSlots {
		w.hints[w.used] = hint
		w.counts[w.used] = 1
		w.used++
		return
	}
	// Decrement all (Misra-Gries); drop zeros.
	out := 0
	for i := 0; i < w.used; i++ {
		w.counts[i]--
		if w.counts[i] > 0 {
			w.hints[out] = w.hints[i]
			w.counts[out] = w.counts[i]
			out++
		}
	}
	w.used = out
}

func (w *wordProfile) singleHint() bool {
	var top uint64
	for i := 0; i < w.used; i++ {
		if w.counts[i] > top {
			top = w.counts[i]
		}
	}
	// Misra-Gries undercounts by at most total/(slots+1); compensate so a
	// truly dominant hint is never misclassified.
	return float64(top)+float64(w.total)/(hintSlots+1) >= singleHintFrac*float64(w.total)
}

func (w *wordProfile) readOnly() bool {
	if w.writes == 0 {
		return true
	}
	return w.reads/w.writes >= roRatio
}

// Classification is the Fig. 3/6 access breakdown: fractions of all
// accesses by committing tasks falling in each category, and their total
// (used to compare CG vs. FG total work, Fig. 6 bar heights).
type Classification = metrics.AccessClassification

type profiler struct {
	words map[uint64]*wordProfile
	args  uint64
}

func newProfiler() *profiler {
	return &profiler{words: make(map[uint64]*wordProfile)}
}

// onCommit folds one committing task's access trace into the profile. Tasks
// without an integer hint get a unique pseudo-hint so their accesses always
// count toward multi-hint data unless genuinely private.
func (p *profiler) onCommit(reads, writes []uint64, hint uint64, hasHint bool, taskID uint64, numArgs int) {
	h := hint
	if !hasHint {
		h = ^taskID // unique per task
	}
	for _, a := range reads {
		w := p.words[a]
		if w == nil {
			w = &wordProfile{}
			p.words[a] = w
		}
		w.note(h, false)
	}
	for _, a := range writes {
		w := p.words[a]
		if w == nil {
			w = &wordProfile{}
			p.words[a] = w
		}
		w.note(h, true)
	}
	p.args += uint64(numArgs)
}

// classify produces the final breakdown.
func (p *profiler) classify() Classification {
	var c Classification
	var mRO, sRO, mRW, sRW uint64
	for _, w := range p.words {
		n := w.reads + w.writes
		switch {
		case w.readOnly() && w.singleHint():
			sRO += n
		case w.readOnly():
			mRO += n
		case w.singleHint():
			sRW += n
		default:
			mRW += n
		}
	}
	total := mRO + sRO + mRW + sRW + p.args
	c.TotalAccesses = total
	if total == 0 {
		return c
	}
	f := func(x uint64) float64 { return float64(x) / float64(total) }
	c.MultiHintRO = f(mRO)
	c.SingleHintRO = f(sRO)
	c.MultiHintRW = f(mRW)
	c.SingleHintRW = f(sRW)
	c.Arguments = f(p.args)
	return c
}
