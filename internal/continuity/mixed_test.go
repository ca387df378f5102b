package continuity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAVDurationRatio(t *testing.T) {
	video := NTSCVideo()      // 30 units/s
	audio := TelephoneAudio() // 8000 units/s
	qv, qa := 3, 800          // 0.1 s video block, 0.1 s audio block
	if n := AVDurationRatio(qv, video, qa, audio); n != 1 {
		t.Fatalf("ratio %g, want 1", n)
	}
	if n := AVDurationRatio(qv, video, 2*qa, audio); n != 2 {
		t.Fatalf("ratio %g, want 2", n)
	}
}

// matchedAudio is the audio granularity whose block lasts as long as a
// video block of qv units: the n = 1 pairing of Eq. 5.
func matchedAudio(qv int, video, audio Media) int {
	return int(math.Round(video.PlaybackDuration(qv) * audio.Rate))
}

// DeriveAV at duration ratio 1 matches the audio block to the video
// block.
func TestMatchedAudioGranularity(t *testing.T) {
	dv, err := DeriveAV(HeterogeneousBlocks, 3, NTSCVideo(), TelephoneAudio(), 1, testDevice())
	if err != nil {
		t.Fatal(err)
	}
	if dv.AudioGran != 800 || dv.DurationRatio != 1 {
		t.Fatalf("matched q_a %d at ratio %g, want 800 at 1", dv.AudioGran, dv.DurationRatio)
	}
}

func TestHeterogeneousDominatesHomogeneous(t *testing.T) {
	// Eq. 6's single scattering gap always beats Eq. 5's two gaps:
	// the heterogeneous bound is at least the homogeneous n=1 bound.
	video := NTSCVideo()
	audio := TelephoneAudio()
	d := testDevice()
	for _, qv := range []int{1, 2, 3, 6, 12} {
		qa := matchedAudio(qv, video, audio)
		hom, okH := AVMaxScattering(HomogeneousBlocks, qv, video, qa, audio, d)
		het, okT := AVMaxScattering(HeterogeneousBlocks, qv, video, qa, audio, d)
		if !okH || !okT {
			t.Fatalf("qv=%d infeasible", qv)
		}
		if het < hom {
			t.Fatalf("qv=%d: heterogeneous bound %g below homogeneous %g", qv, het, hom)
		}
	}
}

func TestEq5ReducesToEq4AtN1(t *testing.T) {
	// With n = 1 the homogeneous equation is exactly Eq. 5:
	// 2·l_ds + (q_v·s_v + q_a·s_a)/r_dt ≤ q_v/R_v.
	video := NTSCVideo()
	audio := TelephoneAudio()
	d := testDevice()
	qv := 3
	qa := matchedAudio(qv, video, audio)
	bound, ok := AVMaxScattering(HomogeneousBlocks, qv, video, qa, audio, d)
	if !ok {
		t.Fatal("infeasible")
	}
	want := (video.PlaybackDuration(qv) - d.TransferTime(video.BlockBits(qv)+audio.BlockBits(qa))) / 2
	if math.Abs(bound-want) > 1e-12 {
		t.Fatalf("n=1 homogeneous bound %g, want Eq. 5's %g", bound, want)
	}
}

func TestAVFeasibleMatchesBound(t *testing.T) {
	video := NTSCVideo()
	audio := TelephoneAudio()
	d := testDevice()
	f := func(rawQ uint8, rawLayout bool, rawFrac uint8) bool {
		qv := int(rawQ)%12 + 1
		layout := HomogeneousBlocks
		if rawLayout {
			layout = HeterogeneousBlocks
		}
		qa := matchedAudio(qv, video, audio)
		bound, ok := AVMaxScattering(layout, qv, video, qa, audio, d)
		if !ok {
			return true
		}
		// The solved bound may land a few ULPs below exact zero slack.
		frac := float64(rawFrac) / 255
		return AVSlack(layout, qv, video, qa, audio, bound*frac, d) >= -1e-12 &&
			AVSlack(layout, qv, video, qa, audio, bound+0.001, d) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargerAudioBlocksRelaxHomogeneousBound(t *testing.T) {
	// Growing n (audio blocks covering more video blocks) amortizes
	// the extra audio gap, monotonically relaxing the bound.
	video := NTSCVideo()
	audio := TelephoneAudio()
	d := testDevice()
	qv := 3
	prev := -1.0
	for _, n := range []float64{1, 2, 4, 8} {
		dv, err := DeriveAV(HomogeneousBlocks, qv, video, audio, n, d)
		if err != nil {
			t.Fatal(err)
		}
		if dv.MaxScattering <= prev {
			t.Fatalf("bound not increasing at n=%g: %g ≤ %g", n, dv.MaxScattering, prev)
		}
		prev = dv.MaxScattering
	}
}

func TestDeriveAVErrors(t *testing.T) {
	video := NTSCVideo()
	audio := TelephoneAudio()
	d := testDevice()
	if _, err := DeriveAV(HomogeneousBlocks, 0, video, audio, 1, d); err == nil {
		t.Fatal("qv=0 accepted")
	}
	if _, err := DeriveAV(HomogeneousBlocks, 3, video, audio, 0.5, d); err == nil {
		t.Fatal("ratio < 1 accepted")
	}
	slow := Device{TransferRate: 1e3, MaxAccess: 0.01}
	if _, err := DeriveAV(HomogeneousBlocks, 3, video, audio, 1, slow); err == nil {
		t.Fatal("infeasible pair accepted")
	}
}

func TestAVLayoutString(t *testing.T) {
	if HomogeneousBlocks.String() != "homogeneous" || HeterogeneousBlocks.String() != "heterogeneous" {
		t.Fatal("layout names")
	}
}
