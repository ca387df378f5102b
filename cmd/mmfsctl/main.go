// Command mmfsctl is a command-line client for mmfsd built on the rope
// stub library (internal/client). It runs one command of the language
// cmd/internal/ctl documents (with no command it lists them) and exits
// 2 on a usage error, 1 on any other failure, a problem check finds
// included.
//
//	mmfsctl [-addr host:port] [-user name] [-seed n] [-class c] [-timeout d] [-retries n] <command> [args]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mmfs/cmd/internal/ctl"
	"mmfs/internal/client"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams (no command reads stdin).
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mmfsctl", flag.ContinueOnError)
	fl.SetOutput(stderr)
	addr := fl.String("addr", "127.0.0.1:7070", "mmfsd address")
	user := fl.String("user", "operator", "user identity for access control")
	seed := fl.Int64("seed", 0, "deterministic seed for synthetic record sources (0 derives one from the current time)")
	class := fl.String("class", "default", "QoS class for play: premium, standard, best-effort, or default (the server's configured default)")
	timeout := fl.Duration("timeout", 0, "dial and per-RPC timeout (0 disables)")
	retries := fl.Int("retries", 0, "transport-failure retries with capped exponential backoff (0 disables)")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fl.NArg() == 0 {
		fmt.Fprintf(stderr, "usage: mmfsctl [flags] <command> [args]\ncommands:\n%s", ctl.Usage())
		return 2
	}
	c, err := client.DialOptions(*addr, client.Options{DialTimeout: *timeout, RPCTimeout: *timeout, Retries: *retries})
	if err == nil {
		defer c.Close()
		err = (&ctl.Interp{Client: c, User: *user, Class: *class, Seed: *seed}).Run(stdout, fl.Args())
	}
	if err != nil {
		fmt.Fprintf(stderr, "mmfsctl: %v\n", err)
	}
	return ctl.Exit(err)
}
