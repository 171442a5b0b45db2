package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cfdclean/internal/strdist"
)

// bruteNearest is the reference implementation: full scan, sort by
// (distance, value), keep those within MaxRadius, cut at k.
func bruteNearest(vals []string, q string, k int) []string {
	type hit struct {
		v string
		d int
	}
	var hits []hit
	seen := map[string]bool{}
	for _, v := range vals {
		if seen[v] {
			continue
		}
		seen[v] = true
		d := strdist.DamerauLevenshtein(q, v)
		if d <= MaxRadius {
			hits = append(hits, hit{v, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].v < hits[j].v
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.v
	}
	return out
}

func randomWords(rng *rand.Rand, n int) []string {
	words := make([]string, n)
	for i := range words {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6)) // small alphabet → many near-collisions
		}
		words[i] = string(b)
	}
	return words
}

// TestBKTreeMatchesBruteForce checks that the pruned, bounded-metric
// BK-tree search returns exactly the brute-force nearest set, for a tree
// built over the whole domain and for one built over a prefix and grown
// by Add: the answer depends on the indexed set, never on the order it
// arrived in. Domains range from a handful of values to well over 64.
func TestBKTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		n := 80
		if trial%2 == 1 {
			n = 4 + rng.Intn(61) // small domains: 4..64 values
		}
		words := randomWords(rng, n)
		cut := rng.Intn(len(words) + 1)
		grown := New(words[:cut])
		for _, w := range words[cut:] {
			grown.Add(w)
		}
		trees := map[string]*BKTree{"full": New(words), "grown": grown}
		for probe := 0; probe < 10; probe++ {
			q := randomWords(rng, 1)[0]
			if probe%3 == 0 {
				q = words[rng.Intn(len(words))] // an indexed value
			}
			k := 1 + rng.Intn(5)
			want := bruteNearest(words, q, k)
			for name, tree := range trees {
				if got := tree.Nearest(q, k); !slices.Equal(got, want) {
					t.Fatalf("trial %d (%d values, %s from %d): Nearest(%q,%d) = %v, want %v",
						trial, n, name, cut, q, k, got, want)
				}
			}
		}
	}
}

// TestBKTreeAddThenQuery: values added after construction are found.
func TestBKTreeAddThenQuery(t *testing.T) {
	tree := New([]string{"alpha", "beta"})
	tree.Add("alphb")
	got := tree.Nearest("alpha", 2)
	if len(got) == 0 || got[0] != "alpha" || got[1] != "alphb" {
		t.Fatalf("Nearest after Add = %v", got)
	}
}

// TestBoundedDLAgreesWithDL: within the bound the bounded variant is
// exact; beyond it, it reports max+1.
func TestBoundedDLAgreesWithDL(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(a, b string, max8 uint8) bool {
		if len(a) > 24 || len(b) > 24 {
			return true
		}
		max := int(max8 % 12)
		d := strdist.DamerauLevenshtein(a, b)
		got := strdist.DamerauLevenshteinBounded(a, b, max)
		if d <= max {
			return got == d
		}
		return got > max
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
