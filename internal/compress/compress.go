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
)

const (
	tokenRun     = 0x00
	tokenLiteral = 0x01
)

// maxCount caps a single token's word count (keeps decoder allocations
// bounded on hostile input).
const maxCount = 1 << 24

// appendUvarint encodes v as a varint.
func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// Encode compresses a word stream.
func Encode(words []uint32) []byte {
	out := make([]byte, 0, len(words)/4+16)
	i := 0
	for i < len(words) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(words) && words[i+run] == words[i] && run < maxCount {
			run++
		}
		if run >= 3 {
			out = append(out, tokenRun)
			out = appendUvarint(out, uint64(run))
			out = binary.BigEndian.AppendUint32(out, words[i])
			i += run
			continue
		}
		// Collect a literal run up to the next ≥3 repeat.
		start := i
		for i < len(words) && i-start < maxCount {
			run = 1
			for i+run < len(words) && words[i+run] == words[i] {
				run++
			}
			if run >= 3 {
				break
			}
			i += run
		}
		out = append(out, tokenLiteral)
		out = appendUvarint(out, uint64(i-start))
		for _, w := range words[start:i] {
			out = binary.BigEndian.AppendUint32(out, w)
		}
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
	for len(data) > 0 {
		token := data[0]
		count, n := binary.Uvarint(data[1:])
		data = data[1+n:]
		switch token {
		case tokenRun:
			w := binary.BigEndian.Uint32(data)
			data = data[4:]
			for i := uint64(0); i < count; i++ {
				out = append(out, w)
			}
		case tokenLiteral:
			for i := uint64(0); i < count; i++ {
				out = append(out, binary.BigEndian.Uint32(data[4*i:]))
			}
			data = data[4*count:]
		}
	}
	return out, nil
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
