package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The three exit codes, each with what it prints: nothing on a clean
// package, one line a finding, the loader's complaint on a package that
// does not type-check; and a bad flag is a usage error.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"./testdata/clean"}, 0, "", ""},
		{[]string{"./testdata/finding"}, 1, "testdata/finding/finding.go:9:2: [detmap] map iteration order escapes into fmt.Println output", ""},
		{[]string{"-github", "./testdata/finding"}, 1, "::error file=testdata/finding/finding.go,line=9,col=2::[detmap]", ""},
		{[]string{"./testdata/broken"}, 2, "", `cannot use "one"`},
		{[]string{"-nosuchflag"}, 2, "", "flag provided but not defined"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit %d, stdout with %q, stderr with %q",
					code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Fatalf("stdout %q, want nothing", stdout.String())
			}
		})
	}
}

// -json writes its file whatever the verdict: [] on a clean package,
// one object of the finding schema for each finding otherwise.
func TestJSONReport(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		code int
		want []finding
	}{
		{"./testdata/clean", 0, []finding{}},
		{"./testdata/finding", 1, []finding{{File: "testdata/finding/finding.go", Line: 9, Col: 2, Analyzer: "detmap",
			Message: "map iteration order escapes into fmt.Println output; range over sorted keys instead (or //lint:ignore detmap if order truly cannot matter)"}}},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "findings.json")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-json", path, tc.pkg}, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr.String())
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []finding
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			if got == nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("the report reads %s, want %+v", raw, tc.want)
			}
			if len(tc.want) == 0 && strings.TrimSpace(string(raw)) != "[]" {
				t.Fatalf("the clean report reads %q, want []", raw)
			}
		})
	}
}
