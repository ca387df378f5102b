// Command mmedit is the rope editor of the prototype — the
// command-line analogue of the paper's window-based multimedia editor
// (Figure 12). It operates on an embedded multimedia file system and
// exposes the full §4.1 operation set over named ropes, reading a
// script from a file or standard input.
//
// Script language (one command per line, '#' comments):
//
//	record <name> <seconds>s [av|video|audio]   record a synthetic clip
//	play <name> [av|video|audio] [start dur]    play, report continuity
//	substring <new> <name> <medium> <start> <dur>
//	insert <name> <pos> <medium> <with> <wstart> <wdur>
//	replace <name> <medium> <bstart> <bdur> <with> <wstart> <wdur>
//	concat <new> <name1> <name2>
//	delete <name> <medium> <start> <dur>
//	rm <name>
//	info <name>
//	list
//	stats
//	trigger <name> <at> <text…>                 attach synchronized text
//	triggers <name>                             list triggers
//	flatten <name>                              merge all strands into one per medium
//
// Example session (the Figure 9 INSERT):
//
//	record rope1 4s av
//	record rope2 2s av
//	insert rope1 2s av rope2 0s 1s
//	play rope1 av
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// editor holds the session state: the embedded file system and the
// name → rope binding table.
type editor struct {
	fs    *core.FS
	names map[string]rope.ID
	user  string
	seed  int64
}

func (e *editor) lookup(name string) (rope.ID, error) {
	id, ok := e.names[name]
	if !ok {
		return 0, fmt.Errorf("no rope named %q", name)
	}
	return id, nil
}

func (e *editor) exec(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "record":
		return e.record(args)
	case "play":
		return e.play(args)
	case "substring":
		return e.substring(args)
	case "insert":
		return e.insert(args)
	case "replace":
		return e.replace(args)
	case "concat":
		return e.concat(args)
	case "delete":
		return e.delete(args)
	case "rm":
		return e.rm(args)
	case "info":
		return e.info(args)
	case "list":
		return e.list()
	case "stats":
		return e.stats()
	case "trigger":
		return e.trigger(args)
	case "triggers":
		return e.triggers(args)
	case "flatten":
		return e.flatten(args)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func (e *editor) record(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("record <name> <seconds>s [av|video|audio]")
	}
	name := args[0]
	seconds, err := strconv.Atoi(strings.TrimSuffix(args[1], "s"))
	if err != nil || seconds < 1 {
		return fmt.Errorf("bad duration %q", args[1])
	}
	m := rope.AudioVisual
	if len(args) > 2 {
		if m, err = rope.ParseMedium(args[2]); err != nil {
			return err
		}
	}
	spec := core.RecordSpec{Creator: e.user, SilenceElimination: true}
	e.seed++
	if m == rope.AudioVisual || m == rope.VideoOnly {
		spec.Video = media.NewVideoSource(30*seconds, 18000, 30, e.seed)
	}
	if m == rope.AudioVisual || m == rope.AudioOnly {
		spec.Audio = media.NewAudioSource(10*seconds, 800, 10, 0.3, 20, e.seed+1000)
	}
	sess, err := e.fs.Record(spec)
	if err != nil {
		return err
	}
	e.fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		return err
	}
	e.names[name] = r.ID
	fmt.Printf("  %s = rope %d (%v)\n", name, r.ID, r.Length())
	return nil
}

func (e *editor) play(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("play <name> [medium] [start dur]")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	m := rope.AudioVisual
	if len(args) > 1 {
		if m, err = rope.ParseMedium(args[1]); err != nil {
			return err
		}
	}
	var start, dur time.Duration
	if len(args) > 2 {
		if start, err = time.ParseDuration(args[2]); err != nil {
			return err
		}
	}
	if len(args) > 3 {
		if dur, err = time.ParseDuration(args[3]); err != nil {
			return err
		}
	}
	h, err := e.fs.Play(e.user, id, m, start, dur, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		return err
	}
	e.fs.Manager().RunUntilDone()
	viol, err := e.fs.PlayViolations(h)
	if err != nil {
		return err
	}
	fmt.Printf("  played %s (%v): %d continuity violation(s)\n", args[0], m, viol)
	return nil
}

func (e *editor) substring(args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("substring <new> <name> <medium> <start> <dur>")
	}
	base, err := e.lookup(args[1])
	if err != nil {
		return err
	}
	m, err := rope.ParseMedium(args[2])
	if err != nil {
		return err
	}
	start, err := time.ParseDuration(args[3])
	if err != nil {
		return err
	}
	dur, err := time.ParseDuration(args[4])
	if err != nil {
		return err
	}
	out, _, err := e.fs.Substring(e.user, base, m, start, dur)
	if err != nil {
		return err
	}
	e.names[args[0]] = out.ID
	fmt.Printf("  %s = rope %d (%v)\n", args[0], out.ID, out.Length())
	return nil
}

func (e *editor) insert(args []string) error {
	if len(args) != 6 {
		return fmt.Errorf("insert <name> <pos> <medium> <with> <wstart> <wdur>")
	}
	base, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	pos, err := time.ParseDuration(args[1])
	if err != nil {
		return err
	}
	m, err := rope.ParseMedium(args[2])
	if err != nil {
		return err
	}
	with, err := e.lookup(args[3])
	if err != nil {
		return err
	}
	ws, err := time.ParseDuration(args[4])
	if err != nil {
		return err
	}
	wd, err := time.ParseDuration(args[5])
	if err != nil {
		return err
	}
	res, err := e.fs.Insert(e.user, base, pos, m, with, ws, wd)
	if err != nil {
		return err
	}
	fmt.Printf("  inserted; %d block(s) copied for scattering maintenance\n", res.CopiedBlocks())
	return nil
}

func (e *editor) replace(args []string) error {
	if len(args) != 7 {
		return fmt.Errorf("replace <name> <medium> <bstart> <bdur> <with> <wstart> <wdur>")
	}
	base, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	m, err := rope.ParseMedium(args[1])
	if err != nil {
		return err
	}
	bs, err := time.ParseDuration(args[2])
	if err != nil {
		return err
	}
	bd, err := time.ParseDuration(args[3])
	if err != nil {
		return err
	}
	with, err := e.lookup(args[4])
	if err != nil {
		return err
	}
	ws, err := time.ParseDuration(args[5])
	if err != nil {
		return err
	}
	wd, err := time.ParseDuration(args[6])
	if err != nil {
		return err
	}
	res, err := e.fs.Replace(e.user, base, m, bs, bd, with, ws, wd)
	if err != nil {
		return err
	}
	fmt.Printf("  replaced; %d block(s) copied for scattering maintenance\n", res.CopiedBlocks())
	return nil
}

func (e *editor) concat(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("concat <new> <name1> <name2>")
	}
	r1, err := e.lookup(args[1])
	if err != nil {
		return err
	}
	r2, err := e.lookup(args[2])
	if err != nil {
		return err
	}
	out, res, err := e.fs.Concate(e.user, r1, r2)
	if err != nil {
		return err
	}
	e.names[args[0]] = out.ID
	fmt.Printf("  %s = rope %d (%v); %d block(s) copied\n", args[0], out.ID, out.Length(), res.CopiedBlocks())
	return nil
}

func (e *editor) delete(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("delete <name> <medium> <start> <dur>")
	}
	base, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	m, err := rope.ParseMedium(args[1])
	if err != nil {
		return err
	}
	start, err := time.ParseDuration(args[2])
	if err != nil {
		return err
	}
	dur, err := time.ParseDuration(args[3])
	if err != nil {
		return err
	}
	res, err := e.fs.DeleteRange(e.user, base, m, start, dur)
	if err != nil {
		return err
	}
	fmt.Printf("  deleted; %d block(s) copied for scattering maintenance\n", res.CopiedBlocks())
	return nil
}

func (e *editor) rm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("rm <name>")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	reclaimed, err := e.fs.DeleteRope(e.user, id)
	if err != nil {
		return err
	}
	delete(e.names, args[0])
	fmt.Printf("  removed %s; %d strand(s) reclaimed\n", args[0], len(reclaimed))
	return nil
}

func (e *editor) info(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info <name>")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	r, ok := e.fs.Ropes().Get(id)
	if !ok {
		return fmt.Errorf("rope %d vanished", id)
	}
	hasVideo, hasAudio := r.Components()
	fmt.Printf("  rope %d (%s): length %v, %d interval(s), video=%v audio=%v, strands %v\n",
		r.ID, args[0], r.Length(), len(r.Intervals), hasVideo, hasAudio, r.Strands())
	for i, iv := range r.Intervals {
		v, a := "-", "-"
		if iv.Video != nil {
			v = fmt.Sprintf("S%d@%d", iv.Video.Strand, iv.Video.StartUnit)
		}
		if iv.Audio != nil {
			a = fmt.Sprintf("S%d@%d", iv.Audio.Strand, iv.Audio.StartUnit)
		}
		fmt.Printf("    interval %d: %v video=%s audio=%s\n", i, iv.Duration, v, a)
	}
	return nil
}

func (e *editor) list() error {
	names := make([]string, 0, len(e.names))
	for n := range e.names {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r, ok := e.fs.Ropes().Get(e.names[n])
		if !ok {
			continue
		}
		fmt.Printf("  %s = rope %d (%v)\n", n, r.ID, r.Length())
	}
	return nil
}

func (e *editor) trigger(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("trigger <name> <at> <text…>")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	at, err := time.ParseDuration(args[1])
	if err != nil {
		return err
	}
	if err := e.fs.AddTrigger(e.user, id, at, strings.Join(args[2:], " ")); err != nil {
		return err
	}
	fmt.Printf("  trigger set at %v\n", at)
	return nil
}

func (e *editor) triggers(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("triggers <name>")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	trigs, err := e.fs.Triggers(e.user, id)
	if err != nil {
		return err
	}
	for _, trig := range trigs {
		fmt.Printf("  %8v  %s\n", trig.At, trig.Text)
	}
	return nil
}

func (e *editor) flatten(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("flatten <name>")
	}
	id, err := e.lookup(args[0])
	if err != nil {
		return err
	}
	res, err := e.fs.Flatten(e.user, id)
	if err != nil {
		return err
	}
	fmt.Printf("  flattened; %d strand(s) reclaimed\n", len(res.Reclaimed))
	return nil
}

func (e *editor) stats() error {
	st := e.fs.Manager().Stats()
	fmt.Printf("  occupancy %.1f%%, %d strand(s), %d rope(s), %d round(s) serviced, k=%d\n",
		e.fs.Occupancy()*100, e.fs.Strands().Len(), e.fs.Ropes().Len(), st.Rounds, e.fs.Manager().K())
	return nil
}

func main() {
	script := flag.String("f", "", "script file (default: stdin)")
	user := flag.String("user", "editor", "user identity")
	flag.Parse()

	fs, err := core.Format(core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmedit: %v\n", err)
		os.Exit(1)
	}
	e := &editor{fs: fs, names: make(map[string]rope.ID), user: *user, seed: 1}

	in := os.Stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmedit: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fmt.Printf("> %s\n", line)
		if err := e.exec(line); err != nil {
			fmt.Fprintf(os.Stderr, "mmedit: line %d: %v\n", lineNo, err)
			os.Exit(1)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "mmedit: %v\n", err)
		os.Exit(1)
	}
}
