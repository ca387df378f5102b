package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/server"
)

// hangup listens on a loopback port and closes every connection it
// accepts, so the first RPC on it fails.
func hangup(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			_ = conn.Close()
		}
	}()
	return lis.Addr().String()
}

// Every verb against an in-process server on a mirrored array, in
// order: one success (exit 0, a piece of its report), one usage error
// (exit 2, the verb's usage line or the argument that did not parse)
// and one failure the server reports (exit 1). A verb the server cannot
// refuse fails against a server that hangs up on every request.
func TestEveryVerb(t *testing.T) {
	fs, err := core.Format(core.Options{Disks: 4, Mirror: true})
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
	addr, dead := lis.Addr().String(), hangup(t)
	mmfsctl := func(addr, line string) (int, string) {
		var out, stderr bytes.Buffer
		code := run(append([]string{"-addr", addr, "-seed", "7"}, strings.Fields(line)...), nil, &out, &stderr)
		return code, out.String() + stderr.String()
	}

	for _, tc := range []struct {
		ok, want, usage, fail string
		before                func()
	}{
		{ok: "record 4s", want: "recorded rope 1 (4s)", usage: "record 0s", fail: "@record 1s"},
		{ok: "record 2 av", want: "recorded rope 2 (2s)", usage: "record 2s av extra"},
		{ok: "list", want: "rope 2: 2s, creator operator", usage: "list 1", fail: "@list"},
		{ok: "info 1", want: "  length:    4s\n", usage: "info", fail: "info 99"},
		{ok: "play 1 av", want: " 0 continuity violation(s)", usage: "play 1 av 0s 1s 5s", fail: "play 99 av"},
		{ok: "insert 1 2s av 2 0s 1s", want: "inserted; ", usage: "insert 1 2s av 2 0s", fail: "insert 99 2s av 2 0s 1s"},
		{ok: "replace 1 av 0s 1s 2 0s 1s", want: "replaced; ", usage: "replace 1 sideways 0s 1s 2 0s 1s", fail: "replace 1 av 0s 1s 99 0s 1s"},
		{ok: "substring 1 av 0s 1s", want: "substring is rope 3", usage: "substring 1 av 0s soon", fail: "substring 99 av 0s 1s"},
		{ok: "concat 1 2", want: "concatenation is rope 4", usage: "concat 1", fail: "concat 1 99"},
		{ok: "delete 4 av 0s 1s", want: "deleted; ", usage: "delete four av 0s 1s", fail: "delete 99 av 0s 1s"},
		{ok: "trigger 1 1s the  cue", usage: "trigger 1 1s", fail: "trigger 99 1s cue"},
		{ok: "triggers 1", want: "      1s  the cue\n", usage: "triggers 1 2", fail: "triggers 99"},
		{ok: "flatten 1", want: "flattened; ", usage: "flatten", fail: "flatten 99"},
		{ok: "rm 4", want: "rope 4 deleted", usage: "rm", fail: "rm 4"},
		{ok: "text-put note hello there", usage: "text-put note", fail: "@text-put note hi"},
		{ok: "text-get note", want: "hello there\n", usage: "text-get", fail: "text-get nothing"},
		{ok: "text-ls", want: "note\n", usage: "text-ls note", fail: "@text-ls"},
		{ok: "stats", want: "mirror health:   healthy", usage: "stats now", fail: "@stats"},
		{ok: "metrics", want: "mmfs_server_", usage: "metrics all", fail: "@metrics"},
		{ok: "rebuild 1", want: "spindle 1 rebuilt: state healthy", usage: "rebuild -1", fail: "rebuild 1",
			before: func() { fs.Array().SetSpindleState(1, disk.Dead) }},
		{ok: "check", want: "file system clean\n", usage: "check all", fail: "@check"},
	} {
		if tc.before != nil {
			tc.before()
		}
		if code, got := mmfsctl(addr, tc.ok); code != 0 || !strings.Contains(got, tc.want) {
			t.Errorf("%q: exit %d, %q; want exit 0 and %q", tc.ok, code, got, tc.want)
		}
		verb := strings.Fields(tc.usage)[0]
		if code, got := mmfsctl(addr, tc.usage); code != 2 || !strings.Contains(got, "usage: "+verb) {
			t.Errorf("%q: exit %d, %q; want exit 2 and the usage line", tc.usage, code, got)
		}
		if tc.fail == "" {
			continue
		}
		to, line := addr, tc.fail
		if strings.HasPrefix(line, "@") {
			to, line = dead, line[1:]
		}
		if code, got := mmfsctl(to, line); code != 1 || !strings.HasPrefix(got, "mmfsctl: ") {
			t.Errorf("%q: exit %d, %q; want exit 1 and the error", tc.fail, code, got)
		}
	}
}

// The command line around the verbs: no command or an unknown one is a
// usage error that lists the commands, and a server that cannot be
// dialled fails with 1.
func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{nil, 2, "usage: mmfsctl [flags] <command> [args]\ncommands:\n  list "},
		{[]string{"-nope"}, 2, "flag provided but not defined: -nope"},
		{[]string{"-addr", hangup(t), "frobnicate"}, 2, "unknown command \"frobnicate\"; commands:\n"},
		{[]string{"-addr", "127.0.0.1:1", "list"}, 1, "mmfsctl: dial"},
	} {
		var out, stderr bytes.Buffer
		if code := run(tc.args, nil, &out, &stderr); code != tc.exit || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: exit %d, %q; want exit %d and %q", tc.args, code, stderr.String(), tc.exit, tc.want)
		}
	}
}
