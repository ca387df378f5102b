// Command mmedit is the prototype's rope editor, the command-line
// analogue of the paper's Figure 12 editor and, like it, a rope stub
// library application: it serves a fresh file system on a loopback port
// in-process and runs a script (-f, or stdin) over it, one
// cmd/internal/ctl command a line, until a line fails (exit 2 on a usage
// error, 1 on any other). Its info also lists each interval's strands,
// read from the file system it owns. The Figure 9 INSERT:
//
//	a = record 4s av
//	b = record 2s av
//	insert a 2s av b 0s 1s
//	play a av
//	info a   # four intervals, after scattering maintenance
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"mmfs/cmd/internal/ctl"
	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/rope"
	"mmfs/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mmedit", flag.ContinueOnError)
	fl.SetOutput(stderr)
	script := fl.String("f", "", "script file (default: stdin)")
	user := fl.String("user", "editor", "user identity")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := edit(*script, *user, stdin, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "mmedit: %v\n", err)
	}
	return ctl.Exit(err)
}

// edit serves a fresh file system and runs the script against it as user.
func edit(script, user string, in io.Reader, out io.Writer) error {
	if script != "" {
		f, err := os.Open(script)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	fs, err := core.Format(core.Options{})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(fs)
	go srv.Serve(lis)
	defer srv.Close()
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()

	ed := &ctl.Interp{Client: c, User: user, Seed: 1, Intervals: func(w io.Writer, id rope.ID) error {
		r, ok := fs.Ropes().Get(id)
		if !ok {
			return fmt.Errorf("rope %d vanished", id)
		}
		for i, iv := range r.Intervals {
			fmt.Fprintf(w, "  interval %d: %v video=%s audio=%s\n", i, iv.Duration, ref(iv.Video), ref(iv.Audio))
		}
		return nil
	}}
	sc := bufio.NewScanner(in)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		fmt.Fprintf(out, "> %s\n", sc.Text())
		if err := ed.Run(out, strings.Fields(sc.Text())); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// ref names a component's strand and first unit, "-" when absent.
func ref(c *rope.ComponentRef) string {
	if c == nil {
		return "-"
	}
	return fmt.Sprintf("S%d@%d", c.Strand, c.StartUnit)
}
