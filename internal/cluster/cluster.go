// Package cluster provides the "cost-based index" of §5.2: an index over
// the active domain of an attribute that lists values in increasing
// distance to a probe, so TUPLERESOLVE can range over candidate fixes in
// decreasing similarity and stop at the first suitable one.
//
// The paper builds this index by hierarchical agglomerative clustering
// (HAC) under the DL metric and answers a probe by descending toward the
// closest child cluster. That answer is approximate, and it depends on
// the order the values arrived in: a tree built over a domain at once
// and a tree grown value by value can disagree, so a session restored
// from a snapshot would repair later tuples differently from the live
// session it recovers. This package uses a Burkhard–Keller tree instead,
// the standard metric index for edit distances. It keeps the paper's
// contract — values by increasing DL distance — but answers exactly:
// Nearest returns the k closest values within MaxRadius with ties broken
// by value, a function of the set of indexed values alone.
package cluster

import "cfdclean/internal/strdist"

type bkNode struct {
	val      string
	children map[int]*bkNode
	// maxe is the largest edge label below this node; it bounds how far
	// any descendant can be from this node's value and lets Nearest call
	// the bounded metric with a sound cutoff.
	maxe int
}

// BKTree is a Burkhard–Keller metric tree over strings under the
// Damerau–Levenshtein distance.
type BKTree struct {
	root *bkNode
	size int
	seen map[string]bool
}

// New indexes vals; duplicates are ignored.
func New(vals []string) *BKTree {
	t := &BKTree{seen: make(map[string]bool, len(vals))}
	for _, v := range vals {
		t.Add(v)
	}
	return t
}

// Len returns the number of distinct indexed values.
func (t *BKTree) Len() int { return t.size }

// Add inserts v (duplicates are ignored). Repairs grow the active domain
// as tuples are inserted (§5.1).
func (t *BKTree) Add(v string) {
	if t.seen[v] {
		return
	}
	t.seen[v] = true
	t.size++
	if t.root == nil {
		t.root = &bkNode{val: v}
		return
	}
	cur := t.root
	for {
		d := strdist.DamerauLevenshtein(v, cur.val)
		if d > cur.maxe {
			cur.maxe = d
		}
		if cur.children == nil {
			cur.children = make(map[int]*bkNode)
		}
		next, ok := cur.children[d]
		if !ok {
			cur.children[d] = &bkNode{val: v}
			return
		}
		cur = next
	}
}

// MaxRadius caps the BK-tree search: repair candidates farther than this
// from the query are not meaningfully "similar" (the paper's noise is at
// DL distance 1–6, and the normalized cost of such distant values
// approaches 1 anyway), and the cap turns most distance computations into
// cheap early exits of the bounded metric.
const MaxRadius = 8

// Nearest returns up to k values within MaxRadius of v by increasing
// distance, ties broken by value, using the triangle-inequality pruning
// of the BK-tree: a subtree at edge distance e from a node at distance d
// can only contain values within |d-e| of v. v itself is among the
// results if indexed.
func (t *BKTree) Nearest(v string, k int) []string {
	if t.root == nil || k <= 0 {
		return nil
	}
	type hit struct {
		val string
		d   int
	}
	// hits holds the best ≤ k values found so far, sorted by (d, val);
	// worst is the current search radius.
	hits := make([]hit, 0, k+1)
	worst := MaxRadius
	insert := func(val string, d int) {
		i := len(hits)
		for i > 0 && (hits[i-1].d > d || (hits[i-1].d == d && hits[i-1].val > val)) {
			i--
		}
		hits = append(hits, hit{})
		copy(hits[i+1:], hits[i:])
		hits[i] = hit{val, d}
		if len(hits) > k {
			hits = hits[:k]
		}
		if len(hits) == k && hits[k-1].d < worst {
			worst = hits[k-1].d
		}
	}
	var walk func(n *bkNode)
	walk = func(n *bkNode) {
		// The distance computation may give up at worst+maxe: beyond
		// that neither the value itself (> worst away) nor any child
		// subtree (|e−D| ≥ D−maxe > worst) can contribute, so the
		// truncated result still prunes soundly.
		bound := worst + n.maxe
		d := strdist.DamerauLevenshteinBounded(v, n.val, bound)
		if d <= worst {
			insert(n.val, d)
		}
		if d > bound {
			return
		}
		for e, child := range n.children {
			diff := e - d
			if diff < 0 {
				diff = -diff
			}
			if diff <= worst {
				walk(child)
			}
		}
	}
	walk(t.root)
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.val
	}
	return out
}
