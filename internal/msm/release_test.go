package msm

import (
	"math/rand"
	"testing"
	"time"
)

// releasedBlocks walks a cursor forward from its previous answer; it must
// answer exactly what the binary search over the fetched blocks does,
// whatever the order of the queries: monotone ones (a play's life) and
// ones that step back (a resume shifts the display start, so the elapsed
// display time falls), with the fetch frontier growing in between.
func TestReleasedCursorMatchesSearch(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		ps := &playState{pm: make([]planPos, n+1)}
		var sum time.Duration
		for i := 0; i < n; i++ {
			ps.pm[i].offset = sum
			sum += time.Duration(1+rng.Intn(100)) * time.Millisecond
		}
		ps.pm[n].offset = sum
		monotone := seed%2 == 0
		elapsed := -time.Duration(rng.Intn(200)) * time.Millisecond
		for q := 0; q < 3000; q++ {
			if ps.nextFetch < n && rng.Intn(3) == 0 {
				ps.nextFetch += rng.Intn(min(8, n-ps.nextFetch) + 1)
			}
			if !monotone && rng.Intn(6) == 0 {
				elapsed -= time.Duration(rng.Intn(3000)) * time.Millisecond
			} else {
				elapsed += time.Duration(rng.Intn(60)) * time.Millisecond
			}
			want := ps.searchReleased(elapsed)
			if got := ps.releasedBlocks(elapsed); got != want {
				t.Fatalf("seed %d query %d: releasedBlocks(%v) = %d with %d fetched, the search says %d",
					seed, q, elapsed, got, ps.nextFetch, want)
			}
		}
	}
}
