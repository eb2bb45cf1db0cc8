package live_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// goldenShards are the shard counts every golden is checked at. With
// -update, the first of them rewrites the file before the rest compare.
var goldenShards = []int{1, 2, 4, 8}

// checkGolden compares got byte for byte with testdata/name, reporting the
// first diverging line. Regenerate with
// go test ./internal/live -run 'Golden|CrossLayout|Layouts' -update.
func checkGolden(t *testing.T, name string, shards int, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && shards == goldenShards[0] {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("Shards=%d: %s diverges at line %d:\n got  %s\n want %s", shards, name, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("Shards=%d: %s has %d lines, golden %d", shards, name, len(gl), len(wl))
}
