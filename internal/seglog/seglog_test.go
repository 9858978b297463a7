package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const testMagic = "WMTEST\x00\x00"

// typedFrameError reports whether err is one of ReadFrame's declared
// rejection modes.
func typedFrameError(err error) bool {
	for _, want := range []error{ErrBadMagic, ErrBadVersion, ErrChecksum, ErrTruncated, ErrCorrupt} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzReadFrame feeds arbitrary bytes through the shared frame reader:
// any input must either yield a payload that re-frames to the bytes it
// was read from, or fail with a typed error. Panics and unbounded
// allocations from forged length fields are the bugs this hunts.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, testMagic, 1, []byte("{\"seq\":1}\n{\"seq\":2}\n")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:12])                   // truncated header
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated checksum
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[25] ^= 0x10 // payload bit flip -> checksum mismatch
	f.Add(flipped)
	forged := append([]byte(nil), valid.Bytes()...)
	forged[12], forged[13], forged[14] = 0xff, 0xff, 0xff // forged multi-MiB length
	f.Add(forged)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), testMagic, 1, 1<<30)
		if err != nil {
			if !typedFrameError(err) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, testMagic, 1, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("a frame that read back does not re-frame to its input")
		}
	})
}

func TestEvictOldestRemovesOldestFirst(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	for i, name := range []string{"c.seg", "a.seg", "b.seg", "keep.other"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(i) * time.Minute) // c oldest, then a, b
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	if n := EvictOldest(dir, ".seg", 150); n != 2 {
		t.Fatalf("evicted %d files, want 2", n)
	}
	for name, want := range map[string]bool{"c.seg": false, "a.seg": false, "b.seg": true, "keep.other": true} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != want {
			t.Errorf("%s present = %v, want %v", name, err == nil, want)
		}
	}
}
