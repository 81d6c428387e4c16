package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/frame"
)

const testMagic uint32 = 0x4543544d // "MTCE"

func key(b byte) string { return strings.Repeat(string([]byte{b}), 64) }

func TestDirPutGetQuarantine(t *testing.T) {
	d := Dir{Root: t.TempDir(), Ext: ".mtc", Magic: testMagic}
	k := key('a')

	if _, err := d.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on an empty dir: %v, want ErrNotFound", err)
	}
	wrote, err := d.Put(k, frame.Encode(testMagic, []byte("first")))
	if err != nil || !wrote || !d.Has(k) {
		t.Fatalf("Put: wrote=%v err=%v has=%v", wrote, err, d.Has(k))
	}
	if want := filepath.Join(d.Root, "aa", k+".mtc"); d.Path(k) != want {
		t.Fatalf("Path = %s, want the sharded %s", d.Path(k), want)
	}
	// Keys are content addresses: a present entry is left alone.
	if wrote, err := d.Put(k, frame.Encode(testMagic, []byte("second"))); err != nil || wrote {
		t.Fatalf("second Put: wrote=%v err=%v, want a skip", wrote, err)
	}
	if got, err := d.Get(k); err != nil || string(got) != "first" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if left, _ := filepath.Glob(filepath.Join(d.Root, "aa", ".tmp-*")); len(left) != 0 {
		t.Fatalf("Put left temp files behind: %v", left)
	}

	// Every defect is ErrCorrupt, and Get itself never moves the file.
	path := d.Path(k)
	good, _ := os.ReadFile(path)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	for name, data := range map[string][]byte{
		"flipped byte": flipped,
		"truncated":    good[:len(good)-1],
		"short":        good[:5],
		"other magic":  frame.Encode(testMagic+1, []byte("first")),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(k); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
		if !d.Has(k) {
			t.Fatalf("%s: Get removed the defective entry", name)
		}
	}
	d.Quarantine(k)
	if d.Has(k) {
		t.Fatal("quarantined entry still present")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine kept no .corrupt file: %v", err)
	}
	if wrote, err := d.Put(k, good); err != nil || !wrote {
		t.Fatalf("Put after quarantine: wrote=%v err=%v", wrote, err)
	}
}

func TestDirWalkIsSortedAndFiltered(t *testing.T) {
	d := Dir{Root: t.TempDir(), Ext: ".mwe", Magic: testMagic}
	for _, b := range []byte{'c', 'a', 'b'} {
		if _, err := d.Put(key(b), frame.Encode(testMagic, []byte{b})); err != nil {
			t.Fatal(err)
		}
	}
	d.Quarantine(key('b'))
	// Strays Walk must not mistake for entries.
	os.WriteFile(filepath.Join(d.Root, "aa", ".tmp-123"), nil, 0o644)
	os.WriteFile(filepath.Join(d.Root, "aa", "zz"+key('a')[2:]+".mwe"), nil, 0o644) // wrong shard
	os.WriteFile(filepath.Join(d.Root, "notashard.mwe"), nil, 0o644)

	var got []string
	d.Walk(func(k string) { got = append(got, k[:1]) })
	if strings.Join(got, "") != "ac" {
		t.Fatalf("Walk visited %q, want a then c", got)
	}
	Dir{Root: filepath.Join(d.Root, "absent"), Ext: ".mwe"}.Walk(func(string) { t.Fatal("entry in an absent dir") })
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job-1.job")
	for _, body := range []string{"old", "new and longer"} {
		if err := WriteFile(path, []byte(body), true); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte(body)) {
			t.Fatalf("file holds %q, want %q", got, body)
		}
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("WriteFile left %d files, want only the target", len(names))
	}
	if err := WriteFile(filepath.Join(dir, "absent", "x"), nil, false); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
