package main

import (
	"testing"
	"time"
)

// The quiet blocks are the ones whose steal counter advanced least
// often, and a cycle's own length plays no part in the choice.
func TestQuietBlocksFollowSteal(t *testing.T) {
	t0 := time.Now()
	const n = 100 // ten blocks of ten cycles, one every 10 ms
	p := phase{steal: &stealWatch{}}
	for i := 0; i < n; i++ {
		p.start = append(p.start, t0.Add(time.Duration(i)*10*time.Millisecond))
		p.cycle = append(p.cycle, 5*time.Millisecond)
		p.lat = append(p.lat, 5)
	}
	// Steal in blocks 1, 4, 7 and 9, most in block 4; block 2 holds the
	// slowest cycle but saw no steal.
	for _, at := range []int{15, 42, 44, 46, 71, 93} {
		p.steal.seen = append(p.steal.seen, t0.Add(time.Duration(at)*10*time.Millisecond))
	}
	p.lat[25] = 500
	keep := quiet(p)
	for i, k := range keep {
		want := true
		switch i / 10 {
		case 1, 4, 7, 9:
			want = false
		}
		if k != want {
			t.Fatalf("cycle %d (block %d): kept %v, want %v", i, i/10, k, want)
		}
	}

	// 60 steal-free cycles are fewer than minStealFree, so every quiet
	// cycle counts, the slow one included.
	lat, _, inQuiet, all := stealFree(p, 5*time.Millisecond)
	if inQuiet != 60 || !all || len(lat) != 60 || percentile(lat, 1) != 500 {
		t.Fatalf("quiet %d, all %v, %d latencies, max %v; want 60, true, 60, 500", inQuiet, all, len(lat), percentile(lat, 1))
	}
}
