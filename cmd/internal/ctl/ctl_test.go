package ctl

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/server"
)

// session serves a fresh file system in-process and returns an
// interpreter dialled to it.
func session(t *testing.T) *Interp {
	t.Helper()
	fs, err := core.Format(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs)
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &Interp{Client: c, User: "editor", Seed: 1}
}

// One session's lines in order, each with its exit status and a piece
// of its report (or of its error). A line the grammar rejects sends no
// RPC: the insert with a bad position leaves a with one interval.
func TestInterpreter(t *testing.T) {
	in := session(t)
	for _, tc := range []struct {
		line string
		exit int
		want string
	}{
		{"a = record 2s av", 0, "recorded rope 1 (2s)\na = rope 1\n"},
		{"b = record 1 video   # a trailing comment", 0, "b = rope 2\n"},
		{"# a whole-line comment", 0, ""},
		{"info a # the clip", 0, "length:    2s\n  intervals: 1\n"},
		{"play a av 0s 1s 5s", 2, "usage: play <rope> <medium> [start] [dur]"},
		{"play a av 0s 1s", 0, " 0 continuity violation(s)"},
		{"insert a soon av b 0s 1s", 2, `invalid duration "soon"; usage: insert`},
		{"info 1", 0, "intervals: 1\n"},
		{"play a sideways", 2, `unknown medium "sideways"`},
		{"info zz", 2, `no rope named "zz"; usage: info <rope>`},
		{"record 0s", 2, `bad number "0s"`},
		{"record 1s av extra", 2, "usage: record <seconds> [medium]"},
		{"frobnicate", 2, "unknown command \"frobnicate\"; commands:\n  list "},
		{"e = play a av", 2, `cannot bind "e"`},
		{"7 = record 1s", 2, `cannot bind "7"`},
		{"c = substring a av 0s 1s", 0, "substring is rope 3\nc = rope 3\n"},
		{"d = concat c 2", 0, "d = rope 4\n"},
		{"info d", 0, "length:    2s\n"},
		{"info 99", 1, "unknown rope 99"},
		{"text-put note  two   words", 0, ""},
		{"text-get note", 0, "two words\n"},
	} {
		var out bytes.Buffer
		err := in.Run(&out, strings.Fields(tc.line))
		got := out.String()
		if err != nil {
			got += err.Error()
		}
		if Exit(err) != tc.exit || !strings.Contains(got, tc.want) {
			t.Errorf("%q: exit %d, %q; want exit %d and %q", tc.line, Exit(err), got, tc.exit, tc.want)
		}
	}
}

// README's command listing is Usage, verbatim.
func TestReadmeListsUsage(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), Usage()) {
		t.Fatalf("README's command listing is not Usage():\n%s", Usage())
	}
}
