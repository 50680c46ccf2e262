// Package compress implements word-oriented bitstream compression, the
// mechanism of the authors' companion work on secure remote configuration
// with bitstream compression ([24] in the paper) that underpins the
// bounded-memory argument: a *compressed* partial bitstream still far
// exceeds the device's BRAM capacity.
//
// Configuration frames are dominated by zero words and short repeats, so
// the codec combines run-length encoding of repeated 32-bit words with
// literal runs:
//
//	token 0x00 | count(varint) | word      — `count` repeats of one word
//	token 0x01 | count(varint) | words...  — `count` literal words
//
// Counts are unsigned varints (7 bits per byte, high bit = continuation).
package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
)

const (
	tokenRun     = 0x00
	tokenLiteral = 0x01
)

// maxCount caps a single token's word count (keeps decoder allocations
// bounded on hostile input).
const maxCount = 1 << 24

// Encode compresses a word stream into a fresh buffer.
func Encode(words []uint32) []byte {
	return AppendEncode(make([]byte, 0, len(words)/4+16), words)
}

// AppendEncode appends the compressed form of words to dst and returns
// the extended slice, for callers that encode into one reused buffer.
//
// One pass walks the stream a word at a time and measures each maximal
// run of equal words once. A run of three or more words becomes run
// tokens of at most maxCount words each; a shorter run, and the one or
// two words a capped run leaves over, join the pending literal, which is
// flushed before the next run token, at the end, or before a short run
// that would take it past maxCount words.
func AppendEncode(dst []byte, words []uint32) []byte {
	out := dst
	lit := 0 // start of the pending literal run
	for i := 0; i < len(words); {
		w := words[i]
		j := i + 1
		for j < len(words) && words[j] == w {
			j++
		}
		if j-i < 3 {
			if j-lit > maxCount {
				out = appendLiteral(out, words[lit:i])
				lit = i
			}
			i = j
			continue
		}
		out = appendLiteral(out, words[lit:i])
		n := j - i
		for ; n >= 3; n -= min(n, maxCount) {
			out = append(out, tokenRun)
			out = binary.AppendUvarint(out, uint64(min(n, maxCount)))
			out = binary.BigEndian.AppendUint32(out, w)
		}
		lit, i = j-n, j
	}
	return appendLiteral(out, words[lit:])
}

// appendLiteral appends a literal token for words, or nothing when
// words is empty.
func appendLiteral(out []byte, words []uint32) []byte {
	if len(words) == 0 {
		return out
	}
	out = append(out, tokenLiteral)
	out = binary.AppendUvarint(out, uint64(len(words)))
	out = slices.Grow(out, 4*len(words))
	for _, w := range words {
		out = binary.BigEndian.AppendUint32(out, w)
	}
	return out
}

// Decode decompresses a word stream.
func Decode(data []byte) ([]uint32, error) {
	return DecodeBounded(data, -1)
}

// DecodeBounded decompresses a word stream with a hard output bound.
// A first pass walks the token structure and sums the declared counts
// without allocating; the output slice is then allocated exactly once
// at the summed size. If maxWords is non-negative and the declared
// total exceeds it, DecodeBounded fails *before* allocating — this is
// the hostile-input guarantee the prover relies on: a forged count can
// never make the decoder reserve more than the caller's stated bound.
func DecodeBounded(data []byte, maxWords int) ([]uint32, error) {
	return AppendDecode(nil, data, maxWords)
}

// AppendDecode is DecodeBounded appending to dst, for callers that
// decode into one reused buffer: it allocates only when dst lacks room
// for the validated total, and never before the bound check.
func AppendDecode(dst []uint32, data []byte, maxWords int) ([]uint32, error) {
	total, err := scanTokens(data, maxWords)
	if err != nil {
		return nil, err
	}
	out := dst
	if cap(out)-len(out) < total {
		out = make([]uint32, len(dst), len(dst)+total)
		copy(out, dst)
	}
	pos := len(out)
	out = out[:pos+total]
	for len(data) > 0 {
		token, count, body := nextToken(data)
		fill := out[pos : pos+count]
		switch token {
		case tokenRun:
			w := binary.BigEndian.Uint32(body)
			for k := range fill {
				fill[k] = w
			}
			data = body[4:]
		case tokenLiteral:
			for k := range fill {
				fill[k] = binary.BigEndian.Uint32(body[4*k:])
			}
			data = body[4*count:]
		}
		pos += count
	}
	return out, nil
}

// AppendDecodeBytes is AppendDecode with the words appended to dst as
// their big-endian bytes, the form in which frames travel and are
// MAC'd: a literal run is one copy, a zero run a clear. It validates,
// bounds (in words) and fails exactly as AppendDecode does.
func AppendDecodeBytes(dst, data []byte, maxWords int) ([]byte, error) {
	total, err := scanTokens(data, maxWords)
	if err != nil {
		return nil, err
	}
	out := dst
	if cap(out)-len(out) < 4*total {
		out = make([]byte, len(dst), len(dst)+4*total)
		copy(out, dst)
	}
	pos := len(out)
	out = out[:pos+4*total]
	for len(data) > 0 {
		token, count, body := nextToken(data)
		fill := out[pos : pos+4*count]
		switch token {
		case tokenRun:
			if w := binary.BigEndian.Uint32(body); w == 0 {
				clear(fill)
			} else {
				copy(fill, body[:4])
				for k := 4; k < len(fill); k *= 2 {
					copy(fill[k:], fill[:k])
				}
			}
			data = body[4:]
		case tokenLiteral:
			copy(fill, body)
			data = body[4*count:]
		}
		pos += 4 * count
	}
	return out, nil
}

// nextToken splits the first token off a stream scanTokens accepted:
// its type, its word count and the bytes after its count.
func nextToken(data []byte) (token byte, count int, body []byte) {
	c, n := binary.Uvarint(data[1:])
	return data[0], int(c), data[1+n:]
}

// scanTokens validates the token structure of data and returns the
// total declared word count, failing early once the running total
// exceeds maxWords (when non-negative).
func scanTokens(data []byte, maxWords int) (int, error) {
	total := 0
	for len(data) > 0 {
		token := data[0]
		data = data[1:]
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("compress: truncated count")
		}
		if count == 0 || count > maxCount {
			return 0, fmt.Errorf("compress: implausible count %d", count)
		}
		data = data[n:]
		switch token {
		case tokenRun:
			if len(data) < 4 {
				return 0, fmt.Errorf("compress: truncated run word")
			}
			data = data[4:]
		case tokenLiteral:
			if uint64(len(data)) < 4*count {
				return 0, fmt.Errorf("compress: truncated literal run")
			}
			data = data[4*count:]
		default:
			return 0, fmt.Errorf("compress: unknown token %#x", token)
		}
		total += int(count)
		if maxWords >= 0 && total > maxWords {
			return 0, fmt.Errorf("compress: declared %d words exceeds bound %d", total, maxWords)
		}
	}
	return total, nil
}

// Ratio returns compressed size over raw size for a word stream.
func Ratio(words []uint32) float64 {
	if len(words) == 0 {
		return 1
	}
	return float64(len(Encode(words))) / float64(len(words)*4)
}
