package server

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
	"mmfs/internal/wire"
)

// The FETCH path lends: the handler copies each unit once, from the
// platters into the reply buffer, and the client hands out copies of the
// units in the reply it read. These tests pin what that must not change
// (the bytes) and what it promises (who owns what, for how long).

// recordLocal records a rope straight into fs, as venkat unless the
// spec names its creator.
func recordLocal(t testing.TB, fs *core.FS, spec core.RecordSpec) *rope.Rope {
	t.Helper()
	spec.Creator = cmp.Or(spec.Creator, "venkat")
	sess, err := fs.Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// unitLoop is the reference reading of a rope range: one one-unit visit,
// copied out, per unit; silence for the gaps.
func unitLoop(t *testing.T, fs *core.FS, id rope.ID, m rope.Medium, start, dur time.Duration) [][]byte {
	t.Helper()
	r, ok := fs.Ropes().Get(id)
	if !ok {
		t.Fatalf("no rope %d", id)
	}
	if dur == 0 {
		dur = r.Length() - start
	}
	part, err := fs.Ropes().Slice(r, m, start, dur)
	if err != nil {
		t.Fatal(err)
	}
	var tmpl *strand.Strand
	for _, iv := range part {
		if ref := iv.Component(m); ref != nil && ref.Strand != strand.Nil {
			tmpl = fs.Strands().MustGet(ref.Strand)
			break
		}
	}
	var out [][]byte
	for _, iv := range part {
		ref := iv.Component(m)
		if ref == nil || ref.Strand == strand.Nil {
			n := int(math.Round(iv.Duration.Seconds() * tmpl.Rate()))
			for i := 0; i < n; i++ {
				out = append(out, bytes.Repeat([]byte{strand.SilenceFill(tmpl.Medium())}, tmpl.UnitBytes()))
			}
			continue
		}
		s := fs.Strands().MustGet(ref.Strand)
		rd := strand.NewReader(fs.MediaDevice(), s)
		n := uint64(math.Round(iv.Duration.Seconds() * s.Rate()))
		n = min(n, s.UnitCount()-ref.StartUnit)
		var buf []byte
		for i := uint64(0); i < n; i++ {
			err := rd.VisitUnits(ref.StartUnit+i, 1, &buf, func(u []byte) error {
				out = append(out, bytes.Clone(u))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func sameUnits(a, b [][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d units vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Errorf("unit %d differs (%d vs %d bytes)", i, len(a[i]), len(b[i]))
		}
	}
	return nil
}

// client.Fetch == core.FetchUnits == a loop of one-unit visits, for every kind
// of rope the file system stores, on one disk and on a striped array.
func TestFetchByteIdentity(t *testing.T) {
	for name, opts := range map[string]core.Options{"one disk": {}, "4-spindle array": {Disks: 4}} {
		t.Run(name, func(t *testing.T) {
			srv, c, _ := serve(t, opts, nil)
			fs := srv.fs
			fixed := recordLocal(t, fs, core.RecordSpec{
				Video: media.NewVideoSource(90, 18000, 30, 501),
				Audio: media.NewAudioSource(30, 800, 10, 0.3, 4, 502),
			})
			vbr := recordLocal(t, fs, core.RecordSpec{Video: media.NewVBRVideoSource(90, 18000, 4000, 10, 30, 503)})
			quiet := recordLocal(t, fs, core.RecordSpec{
				Video:              media.NewVideoSource(90, 18000, 30, 504),
				Audio:              media.NewAudioSource(30, 800, 10, 0.6, 5, 505),
				SilenceElimination: true,
			})
			// A gap on top of the eliminated silence: the middle second
			// of audio is blanked.
			if _, err := fs.DeleteRange("venkat", quiet.ID, rope.AudioOnly, time.Second, time.Second); err != nil {
				t.Fatal(err)
			}
			hetero := recordLocal(t, fs, core.RecordSpec{
				Video:         media.NewVideoSource(60, 18000, 30, 506),
				Audio:         media.NewAudioSource(30, 800, 15, 0, 1, 507), // 12000 B/s over 30 fps: 400 B a frame
				Heterogeneous: true,
			})
			// Spliced at offsets that fall inside media blocks, so the
			// intervals open and close on partial blocks.
			donor := recordLocal(t, fs, core.RecordSpec{
				Video: media.NewVideoSource(90, 18000, 30, 508),
				Audio: media.NewAudioSource(30, 800, 10, 0.3, 4, 509),
			})
			spliced := recordLocal(t, fs, core.RecordSpec{
				Video: media.NewVideoSource(90, 18000, 30, 510),
				Audio: media.NewAudioSource(30, 800, 10, 0.3, 4, 511),
			})
			if _, err := fs.Insert("venkat", spliced.ID, 700*time.Millisecond, rope.AudioVisual, donor.ID, 300*time.Millisecond, 1100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			sub, _, err := fs.Substring("venkat", spliced.ID, rope.AudioVisual, 400*time.Millisecond, 2200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}

			ropes := []struct {
				name  string
				id    rope.ID
				media []rope.Medium
			}{
				{"fixed rate", fixed.ID, []rope.Medium{rope.VideoOnly, rope.AudioOnly}},
				{"variable rate", vbr.ID, []rope.Medium{rope.VideoOnly}},
				{"silence-eliminated audio with a gap", quiet.ID, []rope.Medium{rope.AudioOnly, rope.VideoOnly}},
				{"heterogeneous", hetero.ID, []rope.Medium{rope.VideoOnly}},
				{"edit-spliced", spliced.ID, []rope.Medium{rope.VideoOnly, rope.AudioOnly}},
				{"substring of the splice", sub.ID, []rope.Medium{rope.VideoOnly, rope.AudioOnly}},
			}
			ranges := [][2]time.Duration{
				{0, 0},
				{300 * time.Millisecond, 0},
				{500 * time.Millisecond, 1300 * time.Millisecond},
				{900 * time.Millisecond, 100 * time.Millisecond},
			}
			for _, rp := range ropes {
				for _, m := range rp.media {
					for _, rg := range ranges {
						what := fmt.Sprintf("%s, %v, [%v,+%v)", rp.name, m, rg[0], rg[1])
						want := unitLoop(t, fs, rp.id, m, rg[0], rg[1])
						if len(want) == 0 {
							t.Fatalf("%s: the reference read nothing", what)
						}
						local, err := fs.FetchUnits("venkat", rp.id, m, rg[0], rg[1])
						if err != nil {
							t.Fatalf("%s: FetchUnits: %v", what, err)
						}
						remote, err := c.Fetch("venkat", rp.id, m, rg[0], rg[1])
						if err != nil {
							t.Fatalf("%s: Fetch: %v", what, err)
						}
						if err := sameUnits(local, want); err != nil {
							t.Fatalf("%s: FetchUnits vs the unit-at-a-time loop: %v", what, err)
						}
						if err := sameUnits(remote, want); err != nil {
							t.Fatalf("%s: client.Fetch vs the unit-at-a-time loop: %v", what, err)
						}
						for i := range want {
							if cap(local[i]) != len(local[i]) || cap(remote[i]) != len(remote[i]) {
								t.Fatalf("%s: unit %d: cap beyond len (local %d/%d, remote %d/%d)", what, i,
									len(local[i]), cap(local[i]), len(remote[i]), cap(remote[i]))
							}
						}
					}
				}
			}
			if problems := fs.Check(); len(problems) != 0 {
				t.Fatalf("check after fetching: %v", problems)
			}
		})
	}
}

// What Fetch returns is the caller's: scribbling over it reaches
// neither the platters nor a later Fetch, and the visitor's lent units
// have nowhere to be appended into.
func TestFetchedUnitsAreTheCallersOwn(t *testing.T) {
	const seed = 620
	var r *rope.Rope
	srv, c, _ := serve(t, core.Options{Disks: 4}, func(s *Server) {
		r = recordLocal(t, s.fs, core.RecordSpec{Video: media.NewVideoSource(60, 18000, 30, seed)})
	})

	err := srv.fs.VisitUnits("venkat", r.ID, rope.VideoOnly, 0, 0, func(unit []byte) error {
		if cap(unit) != len(unit) {
			return fmt.Errorf("lent unit has cap %d > len %d", cap(unit), len(unit))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	first, err := c.Fetch("venkat", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range first {
		for j := range u {
			u[j] ^= 0xFF
		}
	}
	check := func(what string, units [][]byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(units) != 60 {
			t.Fatalf("%s: %d units", what, len(units))
		}
		for i, u := range units {
			if !bytes.Equal(u, media.FramePayload(seed, uint64(i), len(u))) {
				t.Fatalf("%s: frame %d is not what was recorded", what, i)
			}
		}
	}
	second, err := c.Fetch("venkat", r.ID, rope.VideoOnly, 0, 0)
	check("a second Fetch", second, err)
	local, err := srv.fs.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
	check("the platters (FetchUnits)", local, err)
	for _, u := range local {
		u[0] ^= 0xFF // FetchUnits' bytes are owned too
	}
	third, err := c.Fetch("venkat", r.ID, rope.VideoOnly, 0, 0)
	check("a Fetch after scribbling on FetchUnits' result", third, err)
}

// The client reads every FETCH reply into one buffer it keeps, and what
// Fetch returns are copies out of it: units kept from one Fetch are
// untouched by later replies — larger, smaller, or another goroutine's
// on the same client (under -race, a unit that was still a view of the
// buffer is a reported race; without it, another rope's frame).
func TestFetchedUnitsSurviveLaterFetches(t *testing.T) {
	seeds := []int64{650, 651, 652}
	frames := []int{30, 90, 15}
	ids := make([]rope.ID, len(seeds))
	_, c, _ := serve(t, core.Options{Disks: 4}, func(s *Server) {
		for i := range seeds {
			ids[i] = recordLocal(t, s.fs, core.RecordSpec{Video: media.NewVideoSource(frames[i], 18000, 30, seeds[i])}).ID
		}
	})
	check := func(i int, units [][]byte) error {
		if len(units) != frames[i] {
			return fmt.Errorf("rope %d: %d units, want %d", i, len(units), frames[i])
		}
		for j, u := range units {
			if cap(u) != len(u) || !bytes.Equal(u, media.FramePayload(seeds[i], uint64(j), len(u))) {
				return fmt.Errorf("rope %d: frame %d is not what was recorded (len %d, cap %d)", i, j, len(u), cap(u))
			}
		}
		return nil
	}
	kept := make([][][]byte, len(ids))
	var err error
	for i, id := range ids {
		if kept[i], err = c.Fetch("venkat", id, rope.VideoOnly, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ids {
		if err := check(i, kept[i]); err != nil {
			t.Fatalf("after the later fetches: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				units, err := c.Fetch("venkat", ids[i], rope.VideoOnly, 0, 0)
				if err == nil {
					err = check(i, units)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// recordAppend keeps views of its request frames until RecordFinish:
// other traffic on the same connection — which reuses the connection's
// reply buffer and reads new request frames — must not disturb them.
func TestRecordAppendUnitsSurviveLaterRequests(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	other, _, err := c.RecordClip("venkat", media.NewVideoSource(30, 18000, 30, 630), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	const seed, frames = 631, 150
	var units [][]byte
	for src := media.NewVideoSource(frames, 18000, 30, seed); ; {
		u, ok := src.Next()
		if !ok {
			break
		}
		units = append(units, u.Payload)
	}
	sess, err := c.RecordStart("venkat", &client.MediumSpec{UnitBytes: 18000, Rate: 30}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < frames; lo += 50 {
		if err := sess.Append(rope.VideoOnly, units[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
		// Large replies and small ones between the batches.
		if _, err := c.Fetch("venkat", other, rope.VideoOnly, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		if err := c.TextWrite("note", bytes.Repeat([]byte{byte(lo)}, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	// The client's own buffers may be reused after Append returns.
	for _, u := range units {
		for j := range u {
			u[j] = 0
		}
	}
	id, _, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch("venkat", id, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != frames {
		t.Fatalf("%d frames", len(got))
	}
	for i, u := range got {
		if !bytes.Equal(u, media.FramePayload(seed, uint64(i), len(u))) {
			t.Fatalf("frame %d is not what was uploaded", i)
		}
	}
}

// Lent bytes never outlive s.mu: one connection fetches and validates
// in a loop while another records, deletes and flattens, so freed
// sectors are rewritten under the fetcher's feet. Under -race a lent
// slice escaping the handler is a reported race; without it, a torn
// frame.
func TestFetchWhileRecordingAndCollecting(t *testing.T) {
	_, c, addr := serve(t, core.Options{}, nil)
	const seed = 640
	keep, _, err := c.RecordClip("venkat", media.NewVideoSource(60, 18000, 30, seed), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the fetcher, on c
		defer wg.Done()
		for fetches := 0; ; fetches++ {
			select {
			case <-stop:
				if fetches == 0 {
					t.Error("the fetcher never ran")
				}
				return
			default:
			}
			units, err := c.Fetch("venkat", keep, rope.VideoOnly, 0, 0)
			if err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			for i, u := range units {
				if !bytes.Equal(u, media.FramePayload(seed, uint64(i), len(u))) {
					t.Errorf("fetch %d: frame %d torn", fetches, i)
					return
				}
			}
		}
	}()
	for cycle := 0; cycle < 6; cycle++ {
		id, _, err := writer.RecordClip("venkat", media.NewVideoSource(45, 18000, 30, int64(700+cycle)),
			media.NewAudioSource(15, 800, 10, 0.3, 4, int64(800+cycle)), true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writer.DeleteRange("venkat", id, rope.AudioVisual, 400*time.Millisecond, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Flatten("venkat", id); err != nil { // merges, then collects the old strands
			t.Fatal(err)
		}
		if n, err := writer.DeleteRope("venkat", id); err != nil || n == 0 {
			t.Fatalf("delete reclaimed %d strand(s): %v", n, err)
		}
	}
	close(stop)
	wg.Wait()
	if problems, err := writer.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("check: %v %v", problems, err)
	}
}

// rawCall sends one request frame on conn and returns the reply body
// or the server's error.
func rawCall(t *testing.T, conn net.Conn, op wire.Op, body []byte) ([]byte, error) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.Request(op, body)); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("%v: no reply, the connection died: %v", op, err)
	}
	return wire.ParseResponse(frame)
}

// The 23-byte SETACCESS frame that used to kill the daemon: a play
// list claiming 2³²−1 names sized an allocation before a byte of the
// names was read. It is an error reply now; the connection, and a fresh
// one, keep being served.
func TestSetAccessHugeCountIsAnErrorReply(t *testing.T) {
	_, c, addr := serve(t, core.Options{}, nil)
	id, _, err := c.RecordClip("venkat", media.NewVideoSource(30, 18000, 30, 650), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	crash := wire.NewEncoder().Str("u").U64(uint64(id)).U32(math.MaxUint32).Bytes()
	if len(crash)+2+4 != 23 {
		t.Fatalf("the crash frame is %d bytes", len(crash)+2+4)
	}
	if _, err := rawCall(t, conn, wire.OpSetAccess, crash); err == nil || !strings.Contains(err.Error(), "beyond body") {
		t.Fatalf("reply to a count of 2^32-1: %v", err)
	}
	// The edit list's count is bounded the same way, as is RECORD's.
	edit := wire.NewEncoder().Str("venkat").U64(uint64(id)).U32(0).U32(math.MaxUint32 - 1).Bytes()
	if _, err := rawCall(t, conn, wire.OpSetAccess, edit); err == nil {
		t.Fatal("an edit list of 2^32-2 names accepted")
	}
	sess, err := c.RecordStart("venkat", &client.MediumSpec{UnitBytes: 8, Rate: 30}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(rope.VideoOnly, [][]byte{make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := rawCall(t, conn, wire.OpRecordAppend, wire.NewEncoder().U64(1).U16(1).U32(math.MaxUint32).Bytes()); err == nil {
		t.Fatal("an append of 2^32-1 units accepted")
	}
	if _, err := rawCall(t, conn, wire.OpListRopes, nil); err != nil {
		t.Fatalf("the connection stopped serving: %v", err)
	}
	fresh, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.SetAccess("venkat", id, []string{"ann", "bob"}, nil); err != nil {
		t.Fatalf("an honest SETACCESS on a fresh connection: %v", err)
	}
	if ids, err := fresh.ListRopes(); err != nil || len(ids) != 1 {
		t.Fatalf("list on a fresh connection: %v %v", ids, err)
	}
}

// A FETCH whose reply would pass the frame limit is refused with an
// error reply — framing happens after the handler, so the limit is the
// handler's to keep — and the connection lives on. The limit is lowered
// so that a two-second rope reaches it.
func TestFetchPastTheFrameLimitIsAnErrorReply(t *testing.T) {
	var r *rope.Rope
	srv, c, _ := serve(t, core.Options{}, func(s *Server) {
		r = recordLocal(t, s.fs, core.RecordSpec{Video: media.NewVideoSource(60, 18000, 30, 660)})
		s.maxReply = 4 + 30*(4+18000) // exactly one second of frames
	})
	if units, err := c.Fetch("venkat", r.ID, rope.VideoOnly, 0, time.Second); err != nil || len(units) != 30 {
		t.Fatalf("a reply that exactly fits: %d units, %v", len(units), err)
	}
	before := srv.connBuf.Value()
	if _, err := c.Fetch("venkat", r.ID, rope.VideoOnly, 0, 0); err == nil || !strings.Contains(err.Error(), "FETCH reply exceeds") {
		t.Fatalf("a reply one frame too long: %v", err)
	}
	if grown := srv.connBuf.Value() - before; grown > 18000 {
		t.Fatalf("the refused reply still grew the buffer by %d bytes", grown)
	}
	if units, err := c.Fetch("venkat", r.ID, rope.VideoOnly, time.Second, time.Second); err != nil || len(units) != 30 {
		t.Fatalf("the connection after the refusal: %d units, %v", len(units), err)
	}
}
