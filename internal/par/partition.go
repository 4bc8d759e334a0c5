package par

// Cuts partitions n consecutive items into min(k, n) contiguous,
// non-empty parts of near-equal size (at least one part). It returns
// the part boundaries: boundaries[i] is the first item of part i, and
// the final entry is n, so part i spans [boundaries[i],
// boundaries[i+1]).
func Cuts(n, k int) []int {
	k = max(1, min(k, n))
	bounds := make([]int, k+1)
	for i := range bounds {
		bounds[i] = i * n / k
	}
	return bounds
}
