package rope

import (
	"testing"
	"time"
)

func TestRopeTableMarshalRoundTrip(t *testing.T) {
	r := newRig(t)
	r1 := r.record(t, 3, 40)
	r1.Creator = "alice"
	r1.PlayAccess = []string{"bob", "carol"}
	r1.EditAccess = []string{"bob"}
	r1.Intervals[0].Triggers = []Trigger{{VideoBlock: 3, AudioBlock: 1, Text: "slide 1: overview"}}
	r2 := r.record(t, 2, 41)
	// Some editing so interval lists are non-trivial.
	if err := r.rs.Insert(r1, time.Second, AudioVisual, r2, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.rs.Delete(r1, AudioOnly, 0, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.rs.RefreshCorrespondence(r1); err != nil {
		t.Fatal(err)
	}

	data := r.rs.Marshal(nil)
	rs2 := NewStore(r.ss, r.in)
	if err := rs2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if rs2.Len() != 2 {
		t.Fatalf("restored %d ropes", rs2.Len())
	}
	got, ok := rs2.Get(r1.ID)
	if !ok {
		t.Fatal("rope 1 lost")
	}
	if got.Creator != "alice" || len(got.PlayAccess) != 2 || len(got.EditAccess) != 1 {
		t.Fatalf("identity lost: %+v", got)
	}
	if got.Length() != r1.Length() {
		t.Fatalf("length %v vs %v", got.Length(), r1.Length())
	}
	if len(got.Intervals) != len(r1.Intervals) {
		t.Fatalf("intervals %d vs %d", len(got.Intervals), len(r1.Intervals))
	}
	for i := range got.Intervals {
		a, b := got.Intervals[i], r1.Intervals[i]
		if a.Duration != b.Duration {
			t.Fatalf("interval %d duration", i)
		}
		if (a.Video == nil) != (b.Video == nil) || (a.Audio == nil) != (b.Audio == nil) {
			t.Fatalf("interval %d component presence", i)
		}
		if a.Video != nil && *a.Video != *b.Video {
			t.Fatalf("interval %d video ref", i)
		}
		if len(a.Corr) != len(b.Corr) || len(a.Triggers) != len(b.Triggers) {
			t.Fatalf("interval %d sync info", i)
		}
	}
	if got.Intervals[0].Triggers[0].Text != "slide 1: overview" {
		t.Fatal("trigger text lost")
	}
	// The restored store continues numbering past the old ropes.
	nr := rs2.Create("x")
	if nr.ID <= r2.ID {
		t.Fatalf("new rope ID %d collides", nr.ID)
	}
	// Interests are rebuilt for restored ropes.
	truth := make(map[uint64][]interface{})
	_ = truth
	for _, id := range rs2.IDs() {
		rp, _ := rs2.Get(id)
		for _, sid := range rp.Strands() {
			if r.in.Count(sid) == 0 {
				t.Fatalf("restored rope %d strand %d has no interest", id, sid)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := newRig(t)
	if err := r.rs.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	data := r.rs.Marshal(nil)
	data[0] ^= 0xff
	if err := r.rs.Unmarshal(data); err == nil {
		t.Fatal("bad magic accepted")
	}
}
