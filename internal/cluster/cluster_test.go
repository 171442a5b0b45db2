package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cfdclean/internal/strdist"
)

var cities = []string{
	"NYC", "PHI", "CHI", "LA", "SF", "BOS", "DC", "SEA", "ATL", "MIA",
	"New York", "Philadelphia", "Chicago", "Los Angeles", "San Francisco",
	"Boston", "Washington", "Seattle", "Atlanta", "Miami",
}

func TestBKTree(t *testing.T) {
	t.Run("BKTree/ExactMatchFirst", func(t *testing.T) {
		ix := New(cities)
		got := ix.Nearest("Boston", 3)
		if len(got) == 0 || got[0] != "Boston" {
			t.Errorf("Nearest(Boston) = %v, want Boston first", got)
		}
	})
	t.Run("BKTree/TypoFindsOriginal", func(t *testing.T) {
		ix := New(cities)
		got := ix.Nearest("Bostom", 1)
		if len(got) != 1 || got[0] != "Boston" {
			t.Errorf("Nearest(Bostom) = %v, want [Boston]", got)
		}
	})
	t.Run("BKTree/KBounds", func(t *testing.T) {
		ix := New(cities)
		if got := ix.Nearest("X", 0); got != nil {
			t.Errorf("k=0 must return nil, got %v", got)
		}
		if got := ix.Nearest("X", 1000); len(got) > len(cities) {
			t.Errorf("k beyond size returned %d values", len(got))
		}
	})
	t.Run("BKTree/AddThenFind", func(t *testing.T) {
		ix := New(cities)
		before := ix.Len()
		ix.Add("Pittsburgh")
		ix.Add("Pittsburgh") // duplicate ignored
		if ix.Len() != before+1 {
			t.Errorf("Len after add = %d, want %d", ix.Len(), before+1)
		}
		got := ix.Nearest("Pittsburg", 1)
		if len(got) != 1 || got[0] != "Pittsburgh" {
			t.Errorf("Nearest(Pittsburg) = %v, want [Pittsburgh]", got)
		}
	})
	t.Run("BKTree/Empty", func(t *testing.T) {
		ix := New(nil)
		if got := ix.Nearest("x", 3); got != nil {
			t.Errorf("empty index returned %v", got)
		}
		ix.Add("solo")
		if got := ix.Nearest("sol", 1); len(got) != 1 || got[0] != "solo" {
			t.Errorf("after add, Nearest = %v", got)
		}
	})
}

// TestBKTreeExactNearest cross-checks BK-tree results against brute force:
// the top-1 result must always be a true nearest neighbor.
func TestBKTreeExactNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]string, 200)
	for i := range vals {
		b := make([]byte, 3+rng.Intn(5))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		vals[i] = string(b)
	}
	ix := New(vals)
	for trial := 0; trial < 50; trial++ {
		b := make([]byte, 3+rng.Intn(5))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		probe := string(b)
		got := ix.Nearest(probe, 1)
		if len(got) != 1 {
			t.Fatalf("Nearest(%q) returned %v", probe, got)
		}
		bestD := 1 << 30
		for _, v := range vals {
			if d := strdist.DamerauLevenshtein(probe, v); d < bestD {
				bestD = d
			}
		}
		if d := strdist.DamerauLevenshtein(probe, got[0]); d != bestD {
			t.Errorf("Nearest(%q) = %q at distance %d, brute force found %d", probe, got[0], d, bestD)
		}
	}
}

// TestBKTreeNearestSorted: results must be in non-decreasing distance.
func TestBKTreeNearestSorted(t *testing.T) {
	f := func(vals []string, probe string) bool {
		ix := New(vals)
		got := ix.Nearest(probe, 5)
		ds := make([]int, len(got))
		for i, v := range got {
			ds[i] = strdist.DamerauLevenshtein(probe, v)
		}
		return sort.IntsAreSorted(ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBKTreeDedup(t *testing.T) {
	ix := New([]string{"a", "a", "b", "a"})
	if ix.Len() != 2 {
		t.Errorf("Len = %d, want 2", ix.Len())
	}
}

func BenchmarkBKTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]string, 20000)
	for i := range vals {
		vals[i] = fmt.Sprintf("cust-%05d-%c%c", rng.Intn(100000), 'a'+rng.Intn(26), 'a'+rng.Intn(26))
	}
	ix := New(vals)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Nearest(vals[i%len(vals)], 5)
	}
}
