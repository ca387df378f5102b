package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current tree")

// TestGoldenTables renders every experiment exactly as cmd/mmexperiments
// does and compares the bytes with the committed tables: a refactor that
// claims "every EXP-* table byte-identical" is checked against output it
// did not produce. Regenerate with `go test ./internal/experiments -run
// TestGoldenTables -update` only when a change means to shift a table.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	for _, r := range All() {
		Render(&buf, r)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, e)
		}
	}
}
