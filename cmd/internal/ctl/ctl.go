// Package ctl is the command language of mmfsctl and mmedit: one
// interpreter that runs a command line against the rope stub library
// (internal/client) and writes its report to an io.Writer. As in the
// paper's prototype (§5.2), a command reaches the file system only by
// remote procedure call.
//
// The commands are the verbs table below, and Usage prints it: <x> is
// an argument, [x] an optional one, <x…> the rest of the line.
// "<name> = <command>" binds the rope a record, substring or concat
// creates to name, and any rope argument may be a bound name instead
// of an ID. A field that starts with '#' ends the line. Media are
// "av", "video"/"v", or "audio"/"a"; times accept Go duration syntax
// ("1.5s", "500ms").
package ctl

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/continuity"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

// Interp runs command lines over one connection to the server.
type Interp struct {
	Client      *client.Client
	User, Class string // the identity rope operations run as; play's QoS class
	Seed        int64  // the next record's source seed, advanced by each record; 0 takes the clock
	// Intervals, if set, lists a rope's intervals after info's counts.
	Intervals func(w io.Writer, id rope.ID) error
	names     map[string]rope.ID
}

// UsageError is a command line the grammar rejects: an unknown command,
// a missing or surplus argument, or an argument that does not parse.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Exit is the exit status for Run's error: 0 for none, 2 for a usage
// error, 1 for any other.
func Exit(err error) int {
	if err == nil {
		return 0
	}
	if errors.As(err, new(UsageError)) {
		return 2
	}
	return 1
}

// Usage lists the commands, one a line, with their grammar.
func Usage() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 8, 2, ' ', 0)
	for _, v := range verbs {
		fmt.Fprintf(tw, "  %s %s\t%s\n", v.name, v.args, v.help)
	}
	tw.Flush()
	return b.String()
}

// Run runs one command line, split into fields.
func (in *Interp) Run(w io.Writer, fields []string) (err error) {
	if i := slices.IndexFunc(fields, func(f string) bool { return strings.HasPrefix(f, "#") }); i >= 0 {
		fields = fields[:i]
	}
	var name string
	if len(fields) > 2 && fields[1] == "=" {
		name, fields = fields[0], fields[2:]
	}
	if len(fields) == 0 {
		return nil
	}
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == fields[0] })
	if i < 0 {
		return UsageError(fmt.Sprintf("unknown command %q; commands:\n%s", fields[0], Usage()))
	}
	v := verbs[i]
	usage := strings.TrimSpace("usage: " + v.name + " " + v.args)
	if lo, hi := arity(v.args); len(fields)-1 < lo || len(fields)-1 > hi {
		return UsageError(usage)
	}
	if _, err := strconv.ParseUint(name, 10, 64); name != "" && (!v.binds || err == nil) {
		return UsageError(fmt.Sprintf("cannot bind %q: only record, substring and concat bind a name that is not a rope ID", name))
	}
	// An argument that does not parse panics with a UsageError before
	// the verb's RPC is sent; it is recovered here.
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(UsageError)
			if !ok {
				panic(r)
			}
			err = UsageError(string(u) + "; " + usage)
		}
	}()
	x := &call{Interp: in, w: w, args: fields[1:]}
	if err := v.run(x); err != nil || name == "" {
		return err
	}
	if in.names == nil {
		in.names = make(map[string]rope.ID)
	}
	in.names[name] = x.made
	fmt.Fprintf(w, "%s = rope %d\n", name, x.made)
	return nil
}

// arity is the least and most arguments a grammar admits.
func arity(grammar string) (lo, hi int) {
	for _, f := range strings.Fields(grammar) {
		if strings.HasSuffix(f, "…>") {
			return lo + 1, math.MaxInt
		}
		if f[0] == '<' {
			lo++
		}
		hi++
	}
	return lo, hi
}

// call is one command's arguments and output.
type call struct {
	*Interp
	w    io.Writer
	args []string
	made rope.ID // the rope a binding verb created
}

// arg parses argument i, panicking with a UsageError if it does not
// parse; an absent optional argument is def.
func arg[T any](x *call, i int, def T, parse func(string) (T, error)) T {
	if i >= len(x.args) {
		return def
	}
	v, err := parse(x.args[i])
	if err != nil {
		panic(UsageError(err.Error()))
	}
	return v
}

func (x *call) dur(i int) time.Duration { return arg(x, i, 0, time.ParseDuration) }

func (x *call) medium(i int) rope.Medium { return arg(x, i, rope.AudioVisual, rope.ParseMedium) }

func (x *call) rope(i int) rope.ID {
	return arg(x, i, 0, func(s string) (rope.ID, error) {
		if id, ok := x.names[s]; ok {
			return id, nil
		}
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("no rope named %q", s)
		}
		return rope.ID(n), nil
	})
}

// count parses argument i as a whole number of at least lo, with an
// optional unit suffix ("5s").
func (x *call) count(i, lo int, suffix string) int {
	return arg(x, i, 0, func(s string) (int, error) {
		n, err := strconv.Atoi(strings.TrimSuffix(s, suffix))
		if err != nil || n < lo {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return n, nil
	})
}

func (x *call) printf(format string, a ...any) { fmt.Fprintf(x.w, format, a...) }

// when prints if cond holds.
func (x *call) when(cond bool, format string, a ...any) {
	if cond {
		x.printf(format, a...)
	}
}

// say reports a verb's result when it has no error, and returns err.
func (x *call) say(err error, format string, a ...any) error {
	x.when(err == nil, format, a...)
	return err
}

type verb struct {
	name, args, help string // args is the grammar the usage line prints
	binds            bool   // the verb creates a rope "<name> =" may bind
	run              func(x *call) error
}

var verbs = []verb{
	{"list", "", "list ropes", false, func(x *call) error {
		ids, err := x.Client.ListRopes()
		for _, id := range ids {
			info, err := x.Client.Info(id)
			if err != nil {
				return err
			}
			x.printf("rope %d: %v, creator %s, %d interval(s), video=%v audio=%v\n",
				id, info.Length, info.Creator, info.Intervals, info.HasVideo, info.HasAudio)
		}
		return err
	}},
	{"info", "<rope>", "describe a rope", false, func(x *call) error {
		id := x.rope(0)
		info, err := x.Client.Info(id)
		err = x.say(err, "rope %d\n  creator:   %s\n  length:    %v\n  intervals: %d\n  media:     video=%v audio=%v\n  strands:   %d\n",
			id, info.Creator, info.Length, info.Intervals, info.HasVideo, info.HasAudio, info.Strands)
		if err != nil || x.Intervals == nil {
			return err
		}
		return x.Intervals(x.w, id)
	}},
	{"record", "<seconds> [medium]", "record a synthetic clip (av by default)", true, func(x *call) error {
		seconds, m := x.count(0, 1, "s"), x.medium(1)
		if x.Seed == 0 {
			x.Seed = time.Now().UnixNano()
		}
		var v, a media.Source
		if m != rope.AudioOnly {
			v = media.NewVideoSource(30*seconds, 18000, 30, x.Seed)
		}
		if m != rope.VideoOnly {
			a = media.NewAudioSource(10*seconds, 800, 10, 0.3, 20, x.Seed+1)
		}
		x.Seed += 2
		id, length, err := x.Client.RecordClip(x.User, v, a, true)
		x.made = id
		return x.say(err, "recorded rope %d (%v)\n", id, length)
	}},
	{"play", "<rope> <medium> [start] [dur]", "play and report continuity", false, func(x *call) error {
		id := x.rope(0)
		res, err := x.Client.Play(x.User, id, x.medium(1), x.dur(2), x.dur(3), 2, x.Class)
		if err != nil {
			return err
		}
		x.printf("played rope %d (%s): %d blocks, startup %v, %d continuity violation(s)",
			id, res.Class, res.Blocks, res.Startup, res.Violations)
		x.when(res.CacheHits > 0, ", %d block(s) from cache", res.CacheHits)
		x.when(res.Stride > 1 || res.ShedBlocks > 0, ", load-shed at stride %d (%d block(s) skipped)", res.Stride, res.ShedBlocks)
		x.printf("\n")
		return nil
	}},
	{"insert", "<base> <pos> <medium> <with> <wstart> <wdur>", "insert an interval of with into base", false, func(x *call) error {
		n, err := x.Client.Insert(x.User, x.rope(0), x.dur(1), x.medium(2), x.rope(3), x.dur(4), x.dur(5))
		return x.say(err, "inserted; scattering maintenance copied %d block(s)\n", n)
	}},
	{"replace", "<base> <medium> <bstart> <bdur> <with> <wstart> <wdur>", "replace an interval of base with one of with", false, func(x *call) error {
		n, err := x.Client.Replace(x.User, x.rope(0), x.medium(1), x.dur(2), x.dur(3), x.rope(4), x.dur(5), x.dur(6))
		return x.say(err, "replaced; scattering maintenance copied %d block(s)\n", n)
	}},
	{"substring", "<base> <medium> <start> <dur>", "a new rope of an interval of base", true, func(x *call) (err error) {
		x.made, err = x.Client.Substring(x.User, x.rope(0), x.medium(1), x.dur(2), x.dur(3))
		return x.say(err, "substring is rope %d\n", x.made)
	}},
	{"concat", "<rope1> <rope2>", "a new rope of rope1 then rope2", true, func(x *call) error {
		id, n, err := x.Client.Concate(x.User, x.rope(0), x.rope(1))
		x.made = id
		return x.say(err, "concatenation is rope %d; copied %d block(s)\n", id, n)
	}},
	{"delete", "<base> <medium> <start> <dur>", "delete an interval of base", false, func(x *call) error {
		n, err := x.Client.DeleteRange(x.User, x.rope(0), x.medium(1), x.dur(2), x.dur(3))
		return x.say(err, "deleted; scattering maintenance copied %d block(s)\n", n)
	}},
	{"rm", "<rope>", "delete a rope", false, func(x *call) error {
		id := x.rope(0)
		n, err := x.Client.DeleteRope(x.User, id)
		return x.say(err, "rope %d deleted; %d strand(s) reclaimed\n", id, n)
	}},
	{"stats", "", "server statistics", false, func(x *call) error {
		st, err := x.Client.Stats()
		if err != nil {
			return err
		}
		x.printf("occupancy:       %.1f%%\nstrands:         %d\nropes:           %d\nservice rounds:  %d\nk (blocks/round): %d\nactive requests: %d\n",
			st.Occupancy*100, st.Strands, st.Ropes, st.Rounds, st.K, st.ActiveRequests)
		x.when(st.CacheCapacity > 0, "cache:           %d/%d KiB, %d interval(s), %d cache-served play(s), %d hit(s)\n",
			st.CacheBytes>>10, st.CacheCapacity>>10, st.CacheIntervals, st.CacheServed, st.CacheHits)
		x.when(st.Retries > 0 || st.DegradedBlocks > 0 || st.FaultStops > 0, "faults:          %d retried read(s), %d degraded block(s), %d stream(s) stopped\n",
			st.Retries, st.DegradedBlocks, st.FaultStops)
		for i, cs := range st.Classes {
			x.when(cs.Active > 0, "qos %-12s %d active, %d degraded, %.1f units/s effective\n",
				continuity.Class(i).String()+":", cs.Active, cs.Degraded, cs.EffectiveRate)
		}
		x.when(st.Promotions > 0 || st.LoadDemotions > 0 || st.ShedBlocks > 0, "qos shedding:    %d promotion(s), %d demotion(s), %d block(s) shed\n",
			st.Promotions, st.LoadDemotions, st.ShedBlocks)
		mirrored := len(st.SpindleStates) > 0
		x.when(mirrored, "mirror health:   %s\n", strings.Join(st.SpindleStates, " "))
		x.when(mirrored && st.RebuildTotal > 0, "rebuild:         %d/%d chunk(s) (%d copied lifetime)\n",
			st.RebuildDone, st.RebuildTotal, st.RebuildBlocks)
		x.when(mirrored && st.RebuildTotal == 0 && st.RebuildBlocks > 0, "rebuild:         idle (%d chunk(s) copied lifetime)\n", st.RebuildBlocks)
		return nil
	}},
	{"rebuild", "<spindle>", "replace a failed mirror spindle and rebuild it online", false, func(x *call) error {
		spindle := x.count(0, 0, "")
		state, blocks, err := x.Client.Rebuild(spindle)
		return x.say(err, "spindle %d rebuilt: state %s, %d repair chunk(s) copied lifetime\n", spindle, state, blocks)
	}},
	{"metrics", "", "dump the server metrics registry (Prometheus text)", false, func(x *call) error {
		snap, err := x.Client.Metrics()
		if err != nil {
			return err
		}
		return snap.WritePrometheus(x.w)
	}},
	{"check", "", "run the integrity checker", false, func(x *call) error {
		problems, err := x.Client.Check()
		for _, p := range problems {
			x.printf("%s\n", p)
		}
		if err == nil && len(problems) > 0 {
			return fmt.Errorf("%d integrity problem(s)", len(problems))
		}
		return x.say(err, "file system clean\n")
	}},
	{"trigger", "<rope> <at> <text…>", "attach synchronized text", false, func(x *call) error {
		return x.Client.AddTrigger(x.User, x.rope(0), x.dur(1), strings.Join(x.args[2:], " "))
	}},
	{"triggers", "<rope>", "list triggers", false, func(x *call) error {
		trigs, err := x.Client.Triggers(x.User, x.rope(0))
		for _, trig := range trigs {
			x.printf("%8v  %s\n", trig.At, trig.Text)
		}
		return err
	}},
	{"flatten", "<rope>", "merge strands (§6.2)", false, func(x *call) error {
		n, err := x.Client.Flatten(x.User, x.rope(0))
		return x.say(err, "flattened; %d strand(s) reclaimed\n", n)
	}},
	{"text-put", "<name> <contents…>", "write a text file", false, func(x *call) error {
		return x.Client.TextWrite(x.args[0], []byte(strings.Join(x.args[1:], " ")))
	}},
	{"text-get", "<name>", "print a text file", false, func(x *call) error {
		data, err := x.Client.TextRead(x.args[0])
		return x.say(err, "%s\n", data)
	}},
	{"text-ls", "", "list text files", false, func(x *call) error {
		names, err := x.Client.TextList()
		for _, n := range names {
			x.printf("%s\n", n)
		}
		return err
	}},
}
