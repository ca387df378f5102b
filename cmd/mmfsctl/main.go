// Command mmfsctl is a command-line client for mmfsd, built on the
// rope stub library (internal/client). It records synthetic clips,
// plays and edits ropes, and manages text files.
//
// Usage:
//
//	mmfsctl [-addr host:port] [-seed n] <command> [args]
//
// Commands:
//
//	list                                    list rope IDs
//	info <rope>                             describe a rope
//	record <seconds> [video] [audio]        record a synthetic clip
//	play <rope> <medium> [start] [dur]      play and report continuity
//	insert <base> <pos> <medium> <with> <wstart> <wdur>
//	replace <base> <medium> <bstart> <bdur> <with> <wstart> <wdur>
//	substring <base> <medium> <start> <dur>
//	concat <rope1> <rope2>
//	delete <base> <medium> <start> <dur>
//	rm <rope>                               delete a rope
//	stats                                   server statistics
//	rebuild <spindle>                       replace a failed mirror spindle and rebuild it online
//	metrics                                 dump the server metrics registry (Prometheus text)
//	text-put <name> <contents…>
//	text-get <name>
//	text-ls
//	check                                   run the integrity checker
//	trigger <rope> <at> <text…>             attach synchronized text
//	triggers <rope>                         list triggers
//	flatten <rope>                          merge strands (§6.2)
//
// Media are "av", "video"/"v", or "audio"/"a"; times accept Go
// duration syntax ("1.5s", "500ms").
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/continuity"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmfsctl [-addr host:port] <list|info|record|play|insert|replace|substring|concat|delete|rm|stats|rebuild|metrics|check|trigger|triggers|flatten|text-put|text-get|text-ls> [args]")
	os.Exit(2)
}

func parseRope(s string) (rope.ID, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	return rope.ID(n), err
}

func parseDur(s string) (time.Duration, error) { return time.ParseDuration(s) }

func die(err error) {
	fmt.Fprintf(os.Stderr, "mmfsctl: %v\n", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "mmfsd address")
	user := flag.String("user", "operator", "user identity for access control")
	seedFlag := flag.Int64("seed", 0, "deterministic seed for synthetic record sources (0 derives one from the current time)")
	class := flag.String("class", "default", "QoS class for play: premium, standard, best-effort, or default (the server's configured default)")
	timeout := flag.Duration("timeout", 0, "dial and per-RPC timeout (0 disables)")
	retries := flag.Int("retries", 0, "transport-failure retries with capped exponential backoff (0 disables)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c, err := client.DialOptions(*addr, client.Options{
		DialTimeout: *timeout,
		RPCTimeout:  *timeout,
		Retries:     *retries,
	})
	if err != nil {
		die(err)
	}
	defer c.Close()

	switch args[0] {
	case "list":
		ids, err := c.ListRopes()
		if err != nil {
			die(err)
		}
		for _, id := range ids {
			info, err := c.Info(id)
			if err != nil {
				die(err)
			}
			fmt.Printf("rope %d: %v, creator %s, %d interval(s), video=%v audio=%v\n",
				id, info.Length, info.Creator, info.Intervals, info.HasVideo, info.HasAudio)
		}
	case "info":
		if len(args) != 2 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		info, err := c.Info(id)
		if err != nil {
			die(err)
		}
		fmt.Printf("rope %d\n  creator:   %s\n  length:    %v\n  intervals: %d\n  media:     video=%v audio=%v\n  strands:   %d\n",
			id, info.Creator, info.Length, info.Intervals, info.HasVideo, info.HasAudio, info.Strands)
	case "record":
		if len(args) < 2 {
			usage()
		}
		seconds, err := strconv.Atoi(strings.TrimSuffix(args[1], "s"))
		if err != nil || seconds < 1 {
			die(fmt.Errorf("bad duration %q (whole seconds)", args[1]))
		}
		wantVideo, wantAudio := true, true
		if len(args) > 2 {
			wantVideo, wantAudio = false, false
			for _, a := range args[2:] {
				switch a {
				case "video", "v":
					wantVideo = true
				case "audio", "a":
					wantAudio = true
				default:
					usage()
				}
			}
		}
		var v, a media.Source
		seed := *seedFlag
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		if wantVideo {
			v = media.NewVideoSource(30*seconds, 18000, 30, seed)
		}
		if wantAudio {
			a = media.NewAudioSource(10*seconds, 800, 10, 0.3, 20, seed+1)
		}
		id, length, err := c.RecordClip(*user, v, a, wantAudio)
		if err != nil {
			die(err)
		}
		fmt.Printf("recorded rope %d (%v)\n", id, length)
	case "play":
		if len(args) < 3 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		m, err := rope.ParseMedium(args[2])
		if err != nil {
			die(err)
		}
		var start, dur time.Duration
		if len(args) > 3 {
			if start, err = parseDur(args[3]); err != nil {
				die(err)
			}
		}
		if len(args) > 4 {
			if dur, err = parseDur(args[4]); err != nil {
				die(err)
			}
		}
		res, err := c.Play(*user, id, m, start, dur, 2, *class)
		if err != nil {
			die(err)
		}
		fmt.Printf("played rope %d (%s): %d blocks, startup %v, %d continuity violation(s)",
			id, res.Class, res.Blocks, res.Startup, res.Violations)
		if res.CacheHits > 0 {
			fmt.Printf(", %d block(s) from cache", res.CacheHits)
		}
		if res.Stride > 1 || res.ShedBlocks > 0 {
			fmt.Printf(", load-shed at stride %d (%d block(s) skipped)", res.Stride, res.ShedBlocks)
		}
		fmt.Println()
	case "insert":
		if len(args) != 7 {
			usage()
		}
		base, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		pos, err := parseDur(args[2])
		if err != nil {
			die(err)
		}
		m, err := rope.ParseMedium(args[3])
		if err != nil {
			die(err)
		}
		with, err := parseRope(args[4])
		if err != nil {
			die(err)
		}
		ws, err := parseDur(args[5])
		if err != nil {
			die(err)
		}
		wd, err := parseDur(args[6])
		if err != nil {
			die(err)
		}
		copied, err := c.Insert(*user, base, pos, m, with, ws, wd)
		if err != nil {
			die(err)
		}
		fmt.Printf("inserted; scattering maintenance copied %d block(s)\n", copied)
	case "replace":
		if len(args) != 8 {
			usage()
		}
		base, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		m, err := rope.ParseMedium(args[2])
		if err != nil {
			die(err)
		}
		bs, err := parseDur(args[3])
		if err != nil {
			die(err)
		}
		bd, err := parseDur(args[4])
		if err != nil {
			die(err)
		}
		with, err := parseRope(args[5])
		if err != nil {
			die(err)
		}
		ws, err := parseDur(args[6])
		if err != nil {
			die(err)
		}
		wd, err := parseDur(args[7])
		if err != nil {
			die(err)
		}
		copied, err := c.Replace(*user, base, m, bs, bd, with, ws, wd)
		if err != nil {
			die(err)
		}
		fmt.Printf("replaced; scattering maintenance copied %d block(s)\n", copied)
	case "substring":
		if len(args) != 5 {
			usage()
		}
		base, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		m, err := rope.ParseMedium(args[2])
		if err != nil {
			die(err)
		}
		start, err := parseDur(args[3])
		if err != nil {
			die(err)
		}
		dur, err := parseDur(args[4])
		if err != nil {
			die(err)
		}
		id, err := c.Substring(*user, base, m, start, dur)
		if err != nil {
			die(err)
		}
		fmt.Printf("substring is rope %d\n", id)
	case "concat":
		if len(args) != 3 {
			usage()
		}
		r1, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		r2, err := parseRope(args[2])
		if err != nil {
			die(err)
		}
		id, copied, err := c.Concate(*user, r1, r2)
		if err != nil {
			die(err)
		}
		fmt.Printf("concatenation is rope %d; copied %d block(s)\n", id, copied)
	case "delete":
		if len(args) != 5 {
			usage()
		}
		base, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		m, err := rope.ParseMedium(args[2])
		if err != nil {
			die(err)
		}
		start, err := parseDur(args[3])
		if err != nil {
			die(err)
		}
		dur, err := parseDur(args[4])
		if err != nil {
			die(err)
		}
		copied, err := c.DeleteRange(*user, base, m, start, dur)
		if err != nil {
			die(err)
		}
		fmt.Printf("deleted; scattering maintenance copied %d block(s)\n", copied)
	case "rm":
		if len(args) != 2 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		n, err := c.DeleteRope(*user, id)
		if err != nil {
			die(err)
		}
		fmt.Printf("rope %d deleted; %d strand(s) reclaimed\n", id, n)
	case "stats":
		st, err := c.Stats()
		if err != nil {
			die(err)
		}
		fmt.Printf("occupancy:       %.1f%%\nstrands:         %d\nropes:           %d\nservice rounds:  %d\nk (blocks/round): %d\nactive requests: %d\n",
			st.Occupancy*100, st.Strands, st.Ropes, st.Rounds, st.K, st.ActiveRequests)
		if st.CacheCapacity > 0 {
			fmt.Printf("cache:           %d/%d KiB, %d interval(s), %d cache-served play(s), %d hit(s)\n",
				st.CacheBytes>>10, st.CacheCapacity>>10, st.CacheIntervals, st.CacheServed, st.CacheHits)
		}
		if st.Retries > 0 || st.DegradedBlocks > 0 || st.FaultStops > 0 {
			fmt.Printf("faults:          %d retried read(s), %d degraded block(s), %d stream(s) stopped\n",
				st.Retries, st.DegradedBlocks, st.FaultStops)
		}
		for i, cs := range st.Classes {
			if cs.Active == 0 {
				continue
			}
			fmt.Printf("qos %-12s %d active, %d degraded, %.1f units/s effective\n",
				continuity.Class(i).String()+":", cs.Active, cs.Degraded, cs.EffectiveRate)
		}
		if st.Promotions > 0 || st.LoadDemotions > 0 || st.ShedBlocks > 0 {
			fmt.Printf("qos shedding:    %d promotion(s), %d demotion(s), %d block(s) shed\n",
				st.Promotions, st.LoadDemotions, st.ShedBlocks)
		}
		if len(st.SpindleStates) > 0 {
			fmt.Printf("mirror health:   %s\n", strings.Join(st.SpindleStates, " "))
			if st.RebuildTotal > 0 {
				fmt.Printf("rebuild:         %d/%d chunk(s) (%d copied lifetime)\n",
					st.RebuildDone, st.RebuildTotal, st.RebuildBlocks)
			} else if st.RebuildBlocks > 0 {
				fmt.Printf("rebuild:         idle (%d chunk(s) copied lifetime)\n", st.RebuildBlocks)
			}
		}
	case "rebuild":
		if len(args) != 2 {
			usage()
		}
		spindle, err := strconv.Atoi(args[1])
		if err != nil || spindle < 0 {
			die(fmt.Errorf("bad spindle %q", args[1]))
		}
		state, blocks, err := c.Rebuild(spindle)
		if err != nil {
			die(err)
		}
		fmt.Printf("spindle %d rebuilt: state %s, %d repair chunk(s) copied lifetime\n", spindle, state, blocks)
	case "metrics":
		snap, err := c.Metrics()
		if err != nil {
			die(err)
		}
		if err := snap.WritePrometheus(os.Stdout); err != nil {
			die(err)
		}
	case "text-put":
		if len(args) < 3 {
			usage()
		}
		if err := c.TextWrite(args[1], []byte(strings.Join(args[2:], " "))); err != nil {
			die(err)
		}
	case "text-get":
		if len(args) != 2 {
			usage()
		}
		data, err := c.TextRead(args[1])
		if err != nil {
			die(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	case "trigger":
		if len(args) < 4 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		at, err := parseDur(args[2])
		if err != nil {
			die(err)
		}
		if err := c.AddTrigger(*user, id, at, strings.Join(args[3:], " ")); err != nil {
			die(err)
		}
	case "triggers":
		if len(args) != 2 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		trigs, err := c.Triggers(*user, id)
		if err != nil {
			die(err)
		}
		for _, trig := range trigs {
			fmt.Printf("%8v  %s\n", trig.At, trig.Text)
		}
	case "flatten":
		if len(args) != 2 {
			usage()
		}
		id, err := parseRope(args[1])
		if err != nil {
			die(err)
		}
		n, err := c.Flatten(*user, id)
		if err != nil {
			die(err)
		}
		fmt.Printf("flattened; %d strand(s) reclaimed\n", n)
	case "check":
		problems, err := c.Check()
		if err != nil {
			die(err)
		}
		if len(problems) == 0 {
			fmt.Println("file system clean")
		} else {
			for _, p := range problems {
				fmt.Println(p)
			}
			os.Exit(1)
		}
	case "text-ls":
		names, err := c.TextList()
		if err != nil {
			die(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	default:
		usage()
	}
}
