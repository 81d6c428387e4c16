package render

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
)

// WritePGM writes a field as a binary (P5) 8-bit PGM, mapping [0, 1] to
// [0, 255] with clamping. PGM is the interchange format for masks between
// the command-line tools.
func WritePGM(w io.Writer, f *grid.Field) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", f.W, f.H)
	for _, v := range f.Data {
		p := int(v*255 + 0.5)
		if p < 0 {
			p = 0
		} else if p > 255 {
			p = 255
		}
		bw.WriteByte(byte(p))
	}
	return bw.Flush()
}

// SavePGM writes a field to a PGM file.
func SavePGM(path string, f *grid.Field) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePGM(file, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// ReadPGM reads a binary (P5) 8-bit PGM into a field with values in
// [0, 1]. Nothing in the input is trusted: a side beyond
// frame.MaxFieldDim and a pixel above the header's max are refused, and
// the raster is read as it arrives, so a header promising more pixels
// than the input holds allocates only what came.
func ReadPGM(r io.Reader) (*grid.Field, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxv int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("render: bad PGM header: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("render: unsupported PGM magic %q (want P5)", magic)
	}
	hdr := fmt.Sprintf("%s %d %d %d", magic, w, h, maxv)
	if w <= 0 || h <= 0 || w > frame.MaxFieldDim || h > frame.MaxFieldDim || maxv <= 0 || maxv > 255 {
		return nil, fmt.Errorf("render: PGM header %q: want sides in 1..%d and max in 1..255", hdr, frame.MaxFieldDim)
	}
	// Single whitespace byte after the header.
	if _, err := br.ReadByte(); err != nil {
		return nil, fmt.Errorf("render: PGM header %q: %w", hdr, err)
	}
	buf, err := io.ReadAll(io.LimitReader(br, int64(w*h)))
	if err == nil && len(buf) < w*h {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("render: PGM header %q: %d of %d pixels read: %w", hdr, len(buf), w*h, err)
	}
	f := grid.New(w, h)
	inv := 1 / float64(maxv)
	for i, b := range buf {
		if int(b) > maxv {
			return nil, fmt.Errorf("render: PGM header %q: pixel %d is %d, above the max", hdr, i, b)
		}
		f.Data[i] = float64(b) * inv
	}
	return f, nil
}

// LoadPGM reads a PGM file into a field.
func LoadPGM(path string) (*grid.Field, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	f, err := ReadPGM(file)
	if err != nil {
		return nil, fmt.Errorf("render: %s: %w", path, err)
	}
	return f, nil
}

// LoadMask reads a PGM file and binarizes it at 0.5, the inverse of saving
// a binary mask.
func LoadMask(path string) (*grid.Field, error) {
	f, err := LoadPGM(path)
	if err != nil {
		return nil, err
	}
	return f.Threshold(0.5), nil
}
