// Package jsonscan is a hand-written, reflection-free JSON scanner for the
// serving path: it validates one JSON value and, when asked, compacts it
// into a buffer, and it quotes strings. Its verdicts and output match
// encoding/json byte for byte — Valid is json.Valid, AppendCompact is
// json.Marshal of a json.RawMessage (whitespace outside strings dropped;
// '<', '>', '&', U+2028 and U+2029 escaped; invalid UTF-8 copied through;
// at most 10000 nested arrays and objects), and AppendString is
// json.Marshal of a Go string — so a body can be checked and re-framed
// without a decode. FuzzScanVsEncodingJSON holds it to encoding/json.
package jsonscan

import (
	"encoding/binary"
	"fmt"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a value may hold at most this
// many arrays and objects inside one another.
const maxDepth = 10000

// syntaxError reports input that is not one valid JSON value.
type syntaxError struct {
	offset int // byte offset in the input where the scan failed
	msg    string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("jsonscan: %s at offset %d", e.msg, e.offset)
}

// Valid reports whether src is one valid JSON value, optionally surrounded
// by whitespace: json.Valid's verdict.
func Valid(src []byte) bool {
	_, err := scan(nil, src, false)
	return err == nil
}

// AppendCompact appends src, which must be one valid JSON value, to dst in
// the form json.Marshal gives a json.RawMessage holding src: whitespace
// outside strings is dropped, '<', '>', '&', U+2028 and U+2029 inside
// strings are escaped, and every other byte, invalid UTF-8 included, is
// copied through. On invalid input it returns dst unchanged and an error
// naming the offset where the scan failed.
func AppendCompact(dst, src []byte) ([]byte, error) {
	return scan(dst, src, true)
}

// scanner is the state of one scan. In compact mode src[start:] is the
// input not yet copied to dst; runs of it are copied whole, and the scan
// copies early only to drop whitespace or to escape a byte.
type scanner struct {
	src     []byte
	dst     []byte
	start   int
	compact bool
}

// scan is the one scanner: it validates src as one JSON value and, when
// compact is set, appends its compact form to dst.
func scan(dst, src []byte, compact bool) ([]byte, error) {
	s := scanner{src: src, dst: dst, compact: compact}
	// objects holds one bit per open container, set for an object; object
	// caches the innermost container's bit.
	var objects [maxDepth/64 + 1]uint64
	depth, object := uint(0), false
	i := s.space(0)
	for {
		// i is at the start of a value.
		if i >= len(src) {
			return dst, errAt(i, "unexpected end of input")
		}
		var err error
		switch c := src[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return dst, errAt(i, "exceeded max depth")
			}
			i = s.space(i + 1)
			if i < len(src) && src[i] == c+2 { // '}' or ']': empty
				i++
				break
			}
			object = c == '{'
			if object {
				objects[depth/64] |= 1 << (depth % 64)
			} else {
				objects[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			if object {
				if i, err = s.key(i); err != nil {
					return dst, err
				}
			}
			continue
		case '"':
			i, err = s.str(i)
		case 't':
			i, err = s.literal(i, "true")
		case 'f':
			i, err = s.literal(i, "false")
		case 'n':
			i, err = s.literal(i, "null")
		default:
			i, err = s.number(i)
		}
		if err != nil {
			return dst, err
		}
		// A value ended: close containers until one continues.
		for {
			i = s.space(i)
			if depth == 0 {
				if i != len(src) {
					return dst, errAt(i, "invalid character after top-level value")
				}
				if compact {
					s.dst = append(s.dst, src[s.start:]...)
				}
				return s.dst, nil
			}
			if i >= len(src) {
				return dst, errAt(i, "unexpected end of input")
			}
			c := src[i]
			if c == ',' {
				i = s.space(i + 1)
				if object {
					if i, err = s.key(i); err != nil {
						return dst, err
					}
				}
				break
			}
			if (object && c == '}') || (!object && c == ']') {
				i++
				// Pop the container: the one below it is innermost again.
				if depth--; depth > 0 {
					object = objects[(depth-1)/64]&(1<<((depth-1)%64)) != 0
				}
				continue
			}
			return dst, errAt(i, "invalid character after element")
		}
	}
}

func errAt(at int, msg string) error { return &syntaxError{offset: at, msg: msg} }

// space returns the index of the first non-whitespace byte at or after i,
// dropping the whitespace from the compact output.
func (s *scanner) space(i int) int {
	if i < len(s.src) && s.src[i] > ' ' {
		return i
	}
	return s.skipSpace(i)
}

// spaces8 is eight spaces read as one little-endian word.
const spaces8 = 0x2020202020202020

func (s *scanner) skipSpace(i int) int {
	src := s.src
	j := i
	for j < len(src) && isSpace(src[j]) {
		j++
		// Indentation comes in runs of spaces: skip them a word at a time.
		for j+8 <= len(src) && binary.LittleEndian.Uint64(src[j:]) == spaces8 {
			j += 8
		}
	}
	if j != i && s.compact {
		s.dst = append(s.dst, src[s.start:i]...)
		s.start = j
	}
	return j
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

// key scans an object key and its colon, leaving i at the member's value.
func (s *scanner) key(i int) (int, error) {
	if i >= len(s.src) || s.src[i] != '"' {
		return i, errAt(i, "object key is not a string")
	}
	i, err := s.str(i)
	if err != nil {
		return i, err
	}
	i = s.space(i)
	if i >= len(s.src) || s.src[i] != ':' {
		return i, errAt(i, "missing colon after object key")
	}
	return s.space(i + 1), nil
}

// special marks the string bytes the scan must look at: the quote, the
// backslash, control characters, the HTML-escaped '<', '>' and '&', and
// 0xE2, the lead byte of U+2028 and U+2029.
var special = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = true
	}
	return t
}()

const hex = "0123456789abcdef"

// str scans the string starting at the quote at i and returns the index
// after its closing quote.
func (s *scanner) str(i int) (int, error) {
	src := s.src
	i++
	for {
		for i < len(src) && !special[src[i]] {
			i++
		}
		if i >= len(src) {
			return i, errAt(i, "unterminated string")
		}
		switch c := src[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			if i+1 >= len(src) {
				return i, errAt(i, "unterminated string")
			}
			switch src[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(src) || !isHex(src[k]) {
						return k, errAt(k, "invalid \\u escape")
					}
				}
				i += 6
			default:
				return i + 1, errAt(i+1, "invalid escape")
			}
		case c < 0x20:
			return i, errAt(i, "control character in string")
		case c == 0xE2:
			if s.compact && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
				s.dst = append(s.dst, src[s.start:i]...)
				s.dst = append(s.dst, '\\', 'u', '2', '0', '2', hex[src[i+2]&0xF])
				s.start = i + 3
				i += 3
			} else {
				i++
			}
		default: // '<', '>', '&'
			if s.compact {
				s.dst = append(s.dst, src[s.start:i]...)
				s.dst = append(s.dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
				s.start = i + 1
			}
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans the number starting at i: an optional minus, an integer
// part without leading zeros, an optional fraction and an optional
// exponent.
func (s *scanner) number(i int) (int, error) {
	src := s.src
	if src[i] == '-' {
		i++
	}
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && isDigit(src[i]):
		for i++; i < len(src) && isDigit(src[i]); i++ {
		}
	default:
		return i, errAt(i, "invalid character looking for a value")
	}
	if i < len(src) && src[i] == '.' {
		i++
		if i >= len(src) || !isDigit(src[i]) {
			return i, errAt(i, "missing digits after decimal point")
		}
		for i++; i < len(src) && isDigit(src[i]); i++ {
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i >= len(src) || !isDigit(src[i]) {
			return i, errAt(i, "missing digits in exponent")
		}
		for i++; i < len(src) && isDigit(src[i]); i++ {
		}
	}
	return i, nil
}

// literal scans the literal word (true, false or null) starting at i.
func (s *scanner) literal(i int, word string) (int, error) {
	if len(s.src)-i < len(word) || string(s.src[i:i+len(word)]) != word {
		return i, errAt(i, "invalid literal")
	}
	return i + len(word), nil
}

// AppendString appends s to dst as a JSON string, exactly as json.Marshal
// encodes a Go string: '"', '\\' and control characters escaped (\b, \f,
// \n, \r and \t by name), '<', '>', '&', U+2028 and U+2029 escaped, and
// each invalid UTF-8 byte replaced by \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
