package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTranscripts runs the command at smoke scale and compares its
// stdout byte for byte with the committed transcripts in testdata. A
// refactor must leave every byte of them unchanged; a deliberate output
// change regenerates a transcript by running the command with its case's
// arguments from this directory.
func TestGoldenTranscripts(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"smoke.golden", []string{"-trace", filepath.Join("testdata", "smoke.trace"), "-trh", "300"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if code := run(context.Background(), append(c.args, "-workers", "2"), &out, &errOut); code != 0 {
			t.Fatalf("%s: exit code %d, stderr: %s", c.golden, code, errOut.String())
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%s: stdout differs from the transcript\n got:\n%s\nwant:\n%s", c.golden, got, want)
		}
	}
}
