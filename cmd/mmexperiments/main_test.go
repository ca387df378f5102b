package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every ID -list prints renders through -exp, and in -list order the
// renderings are the whole run: the committed all.golden, byte for byte.
// An unknown ID is a usage error.
func TestListedIDsRenderThroughExp(t *testing.T) {
	var list, stderr bytes.Buffer
	if code := run([]string{"-list"}, &list, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	ids := strings.Fields(list.String())
	if len(ids) == 0 {
		t.Fatal("-list printed no experiment")
	}

	var out bytes.Buffer
	stderr.Reset()
	if code := run([]string{"-exp", "nope"}, &out, &stderr); code != 2 || out.Len() != 0 || !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Fatalf("-exp nope: exit %d, stdout %q, stderr %q; want exit 2 and the error on stderr", code, out.String(), stderr.String())
	}

	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, id := range ids {
		before := out.Len()
		if code := run([]string{"-exp", id}, &out, &stderr); code != 0 || out.Len() == before {
			t.Fatalf("-exp %s: exit %d, %d bytes, stderr %q", id, code, out.Len()-before, stderr.String())
		}
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("-exp over the -list IDs, in order, does not render all.golden")
	}
}
