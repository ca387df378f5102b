package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeScript is the editor session README pipes into mmedit.
func readmeScript(t *testing.T) string {
	t.Helper()
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`printf '([^']*)' \| go run \./cmd/mmedit`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README has no mmedit session")
	}
	return strings.ReplaceAll(string(m[1]), `\n`, "\n")
}

// README's Figure 9 session binds its two clips, plays the edited rope
// with no continuity violation, and info lists its four intervals from
// the file system the editor serves.
func TestReadmeSession(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(readmeScript(t)), &out, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	report := out.String()
	for _, want := range []string{
		"> a = record 4s av\nrecorded rope 1 (4s)\na = rope 1\n",
		"> b = record 2s av\nrecorded rope 2 (2s)\nb = rope 2\n",
		" 0 continuity violation(s)\n",
		"  length:    5s\n  intervals: 4\n",
		"  interval 0: 2s video=S1@0 audio=S2@0\n",
		"  interval 3: 1.6s video=S1@72 audio=S2@24\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if n := strings.Count(report, "  interval "); n != 4 {
		t.Errorf("info listed %d intervals, want 4:\n%s", n, report)
	}
}

// A script stops at its first failing line: exit 2 for a usage error,
// 1 for one the server reports; the lines after it do not run. -f reads
// the script from a file.
func TestScriptStopsAtTheFailingLine(t *testing.T) {
	for _, tc := range []struct {
		script, err string
		exit        int
	}{
		{"a = record 1s\nplay a av 0s 1s 5s\nlist\n", "mmedit: line 2: usage: play", 2},
		{"\n# setup\ninfo 9\nlist\n", "mmedit: line 3: mmfs server: server: unknown rope 9", 1},
	} {
		path := filepath.Join(t.TempDir(), "script")
		if err := os.WriteFile(path, []byte(tc.script), 0o600); err != nil {
			t.Fatal(err)
		}
		var out, stderr bytes.Buffer
		code := run([]string{"-f", path}, nil, &out, &stderr)
		if code != tc.exit || !strings.HasPrefix(stderr.String(), tc.err) || strings.Contains(out.String(), "> list") {
			t.Errorf("%q: exit %d, stderr %q, report %q; want exit %d and %q, stopped", tc.script, code, stderr.String(), out.String(), tc.exit, tc.err)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-f", filepath.Join(t.TempDir(), "missing")}, nil, &bytes.Buffer{}, &stderr); code != 1 {
		t.Errorf("missing script: exit %d, %q; want 1", code, stderr.String())
	}
	if code := run([]string{"-nope"}, nil, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d; want 2", code)
	}
}
