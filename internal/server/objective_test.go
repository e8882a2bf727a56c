package server

import (
	"errors"
	"slices"
	"testing"

	"cswap/internal/compress"
)

// The launch objective must weigh realized compressed size, not kernels
// alone: at equal kernel time the smaller blob wins, and a kernel saving
// smaller than the transfer cost it induces must lose.
func TestLaunchObjective(t *testing.T) {
	const link = 12e9
	if a, b := launchObjective(1e-3, 1<<20, link), launchObjective(1e-3, 2<<20, link); a >= b {
		t.Fatalf("equal kernels: smaller blob scored %v >= larger %v", a, b)
	}
	// 10µs faster kernel, 1 MiB larger blob: the extra ~175µs of two-way
	// transfer dwarfs the kernel saving.
	fastButFat := launchObjective(990e-6, 2<<20, link)
	slowButLean := launchObjective(1e-3, 1<<20, link)
	if fastButFat <= slowButLean {
		t.Fatalf("fragmenting geometry won: %v <= %v", fastButFat, slowButLean)
	}
	// The blob term is the two-way modeled transfer, additive on kernels.
	want := 1e-3 + 2*float64(1<<20)/link
	if got := launchObjective(1e-3, 1<<20, link); got != want {
		t.Fatalf("objective = %v, want %v", got, want)
	}
}

// TestLaunchScan pins the scan's two rules: it probes only while doubling
// the grid still changes the probe's chunk count, and a win by the last
// grid probed installs the scan's ceiling instead.
func TestLaunchScan(t *testing.T) {
	cur := compress.Launch{Grid: 16, Block: 128}
	cases := []struct {
		name   string
		n      int
		winner int // the grid the fake scorer makes cheapest
		probed []int
		want   int
	}{
		{"64Ki probe, grid 2 wins", 64 << 10, 2, []int{1, 2, 4}, 2},
		{"64Ki probe, last grid wins", 64 << 10, 4, []int{1, 2, 4}, maxScanGrid},
		{"probe below the floor", 16 << 10, 1, []int{1}, maxScanGrid},
		{"64 MiB probe, grid 512 wins", 16 << 20, 512,
			[]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, 512},
	}
	for _, tc := range cases {
		var probed []int
		got := scanLaunch(cur, tc.n, func(l compress.Launch) (float64, error) {
			if l.Block != cur.Block {
				t.Fatalf("%s: probed %v, want Block %d", tc.name, l, cur.Block)
			}
			probed = append(probed, l.Grid)
			if l.Grid == tc.winner {
				return 1, nil
			}
			return 2, nil
		})
		if !slices.Equal(probed, tc.probed) {
			t.Errorf("%s: probed grids %v, want %v", tc.name, probed, tc.probed)
		}
		if want := (compress.Launch{Grid: tc.want, Block: cur.Block}); got != want {
			t.Errorf("%s: scan installed %v, want %v", tc.name, got, want)
		}
	}
	// Every probe failing leaves the standing launch in place.
	if got := scanLaunch(cur, 64<<10, func(compress.Launch) (float64, error) {
		return 0, errors.New("probe failed")
	}); got != cur {
		t.Errorf("all probes failed: scan installed %v, want %v", got, cur)
	}
}
