// Package strdist provides string distance metrics used by the cost model
// of the CFD-repair framework.
//
// The paper (§3.2) adopts the Damerau–Levenshtein (DL) metric — the minimum
// number of single-character insertions, deletions and substitutions
// (plus adjacent transpositions) required to transform one string into the
// other — and normalizes it by the length of the longer string so that long
// strings with a one-character difference are considered closer than short
// strings with a one-character difference. Other metrics (§3.2 remark 2)
// can be plugged in through the Metric interface.
package strdist

// Metric computes a non-negative distance between two strings.
// Implementations must guarantee Distance(a, a) == 0 and symmetry.
type Metric interface {
	// Distance returns the edit distance between a and b.
	Distance(a, b string) int
}

// Func adapts an ordinary function to the Metric interface.
type Func func(a, b string) int

// Distance calls f(a, b).
func (f Func) Distance(a, b string) int { return f(a, b) }

// DL is the package-default Damerau–Levenshtein metric.
var DL Metric = dlMetric{}

// Levenshtein returns the classic edit distance between a and b:
// the minimum number of single-character insertions, deletions and
// substitutions transforming a into b. It operates on runes, not bytes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Two-row dynamic program.
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// DamerauLevenshtein returns the restricted Damerau–Levenshtein distance
// (optimal string alignment): Levenshtein plus transposition of two
// adjacent characters, with no substring edited more than once.
// This is the metric named in the paper [16].
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three-row dynamic program: prev2 = row i-2, prev = row i-1, cur = row i.
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

type dlMetric struct{}

func (dlMetric) Distance(a, b string) int { return DamerauLevenshtein(a, b) }

// DamerauLevenshteinBounded is DamerauLevenshtein with a cutoff: it
// returns max+1 as soon as the distance provably exceeds max. The length
// difference is a lower bound on the distance, and each DP row's minimum
// is non-decreasing, so both give cheap early exits.
func DamerauLevenshteinBounded(a, b string, max int) int {
	if max < 0 {
		return 0
	}
	la, lb := len(a), len(b)
	// Byte lengths bound rune lengths from above; compute rune lengths
	// only when the cheap byte-length test cannot decide.
	if la-lb > max || lb-la > max {
		if d := runeLenDiff(a, b); d > max {
			return max + 1
		}
	}
	ra, rb := []rune(a), []rune(b)
	if diff := len(ra) - len(rb); diff > max || -diff > max {
		return max + 1
	}
	n := len(rb)
	prev2 := make([]int, n+1)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= n; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if rowMin > max {
			return max + 1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	if prev[n] > max {
		return max + 1
	}
	return prev[n]
}

func runeLenDiff(a, b string) int {
	la, lb := len([]rune(a)), len([]rune(b))
	if la > lb {
		return la - lb
	}
	return lb - la
}

// Normalized returns dis(a,b)/max(|a|,|b|) under metric m, the similarity
// measure used by the paper's cost model (§3.2). It lies in [0, 1] for
// metrics bounded by the longer string length (true for Levenshtein and DL).
// Normalized("", "") is 0: identical strings have zero distance.
func Normalized(m Metric, a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(m.Distance(a, b)) / float64(n)
}

// JaroWinkler returns the Jaro–Winkler similarity between a and b scaled
// into a distance in [0,1] (0 = identical). It is provided as an
// alternative metric (paper §3.2 remark 2, citing [11]); the repair
// algorithms only require a normalized distance in [0,1].
func JaroWinkler(a, b string) float64 {
	sim := jaroWinklerSim(a, b)
	return 1 - sim
}

func jaroWinklerSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	var matches int
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	var transpositions int
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	jaro := (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
	// Winkler prefix boost, standard p = 0.1, prefix capped at 4.
	prefix := 0
	for prefix < la && prefix < lb && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return jaro + float64(prefix)*0.1*(1-jaro)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
