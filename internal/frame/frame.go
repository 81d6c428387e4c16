// Package frame is the one binary envelope and the one scalar encoding
// behind everything the service persists or serves: cache entries (MTCE),
// warm-start entries (MWLE), and artifact blobs, anchors and rasters
// (MTAB/MTAN/MTGF). A frame is
//
//	[4] magic   (uint32 LE; names the format)
//	[4] length  (uint32 LE; payload bytes)
//	[4] crc32   (IEEE, over the payload)
//	[n] payload
//
// and a payload is a stream of 8-byte little-endian scalars (Writer,
// Reader): integers as two's complement, floats as IEEE-754 bit patterns
// so equal bits — and only equal bits — encode equal, which carries the
// bit-identity guarantees across disk and wire. DESIGN.md ("Encoding and
// storage kernel") tabulates the formats.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderLen is the size of the magic/length/CRC header.
	HeaderLen = 12

	// MaxPayload bounds a frame before any allocation: a corrupt or
	// hostile length field must not OOM the reader. 1 GiB holds a 11585^2
	// float64 raster, beyond any plan's power-of-two window cap.
	MaxPayload = 1 << 30

	// MaxFieldDim bounds either side of a decoded raster, so a corrupt
	// dimension is rejected before it is multiplied or allocated.
	MaxFieldDim = 1 << 15
)

// SquareFits reports whether an n x n float64 raster fits one frame
// (n <= 8192 for a power of two). A window result beyond it can be
// neither cached nor anchored, so planners and validators
// refuse such a grid before anything is allocated.
func SquareFits(n int) bool {
	return n > 0 && n <= MaxFieldDim && 8*n*n <= MaxPayload
}

func putHeader(hdr []byte, magic uint32, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
}

// parseHeader checks magic and payload cap; returns length and CRC.
func parseHeader(hdr []byte, magic uint32) (int, uint32, error) {
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != magic {
		return 0, 0, fmt.Errorf("frame: magic %#x, want %#x", got, magic)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("frame: payload %d exceeds the %d byte cap", n, MaxPayload)
	}
	return int(n), binary.LittleEndian.Uint32(hdr[8:]), nil
}

func checkCRC(payload []byte, crc uint32) error {
	if crc32.ChecksumIEEE(payload) != crc {
		return fmt.Errorf("frame: CRC mismatch")
	}
	return nil
}

// split validates the frame at the head of data and returns its payload
// and the bytes after it, both aliasing data.
func split(magic uint32, data []byte) (payload, rest []byte, err error) {
	if len(data) < HeaderLen {
		return nil, nil, fmt.Errorf("frame: %d bytes, shorter than a header", len(data))
	}
	n, crc, err := parseHeader(data, magic)
	if err != nil {
		return nil, nil, err
	}
	if n > len(data)-HeaderLen {
		return nil, nil, fmt.Errorf("frame: torn: payload %d exceeds the %d bytes present", n, len(data)-HeaderLen)
	}
	payload = data[HeaderLen : HeaderLen+n]
	return payload, data[HeaderLen+n:], checkCRC(payload, crc)
}

// Encode wraps a payload in a header.
func Encode(magic uint32, payload []byte) []byte {
	w := NewFrame(len(payload))
	w.Raw(payload)
	return w.Seal(magic)
}

// Decode validates a buffer holding exactly one frame (a whole file) and
// returns its payload, which aliases data.
func Decode(magic uint32, data []byte) ([]byte, error) {
	payload, rest, err := split(magic, data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("frame: %d bytes after the frame", len(rest))
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// Scan walks an append-only log, calling fn with each payload (aliasing
// data). It stops at the first defective frame — short header, wrong
// magic, torn payload, CRC mismatch, or a payload fn rejects — and
// returns the valid prefix length and the defect (nil when every byte
// was consumed). A writer crashed mid-append leaves exactly such a tail.
func Scan(magic uint32, data []byte, fn func(payload []byte) error) (int, error) {
	for rest := data; len(rest) > 0; {
		payload, next, err := split(magic, rest)
		if err == nil {
			err = fn(payload)
		}
		if err != nil {
			return len(data) - len(rest), err
		}
		rest = next
	}
	return len(data), nil
}
