// Package scheduler implements the work-distribution *policy* of Section
// III-F / Algorithm 4 of the DPar2 paper: slices are taken largest first so
// that the per-thread sums of row counts (which the stage-1 randomized-SVD
// cost is proportional to) come out balanced despite the irregularity of
// the tensor.
//
// The program applies that rule online: it claims slices across the pool in
// LPTOrder ((*compute.Pool).Claim), so each free lane takes the largest
// slice left and the balance follows the real run times. Partition is
// Algorithm 4's static estimate of the same schedule, from row counts alone;
// it is kept for the partitioning ablation (BenchmarkAblationPartition) and
// for perfbench's stage-1 probe, which hand its buckets to
// (*compute.Pool).RunPartitioned.
package scheduler

import "sort"

// Partition assigns the K items with the given sizes to t buckets using the
// greedy longest-processing-time heuristic of Algorithm 4: sort sizes in
// descending order and repeatedly place the next item in the bucket with the
// smallest current sum. The result maps bucket → item indices.
func Partition(sizes []int, t int) [][]int {
	if t <= 0 {
		t = 1
	}
	if t > len(sizes) && len(sizes) > 0 {
		t = len(sizes)
	}
	buckets := make([][]int, t)
	sums := make([]int64, t)
	for _, item := range LPTOrder(sizes) {
		tmin := 0
		for i := 1; i < t; i++ {
			if sums[i] < sums[tmin] {
				tmin = i
			}
		}
		buckets[tmin] = append(buckets[tmin], item)
		sums[tmin] += int64(sizes[item])
	}
	return buckets
}

// LPTOrder returns the item indices sorted by size, largest first, with
// ties kept in index order: the order in which Algorithm 4 places items.
func LPTOrder(sizes []int) []int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sizes[idx[a]] > sizes[idx[b]] })
	return idx
}

// RoundRobin is the naive baseline allocation (item i → bucket i mod t),
// used by the partitioning ablation.
func RoundRobin(n, t int) [][]int {
	if t <= 0 {
		t = 1
	}
	if t > n && n > 0 {
		t = n
	}
	buckets := make([][]int, t)
	for i := 0; i < n; i++ {
		buckets[i%t] = append(buckets[i%t], i)
	}
	return buckets
}

// MaxLoad returns the maximum bucket sum under the given assignment — the
// makespan that determines parallel completion time.
func MaxLoad(sizes []int, buckets [][]int) int64 {
	var mx int64
	for _, b := range buckets {
		var s int64
		for _, item := range b {
			s += int64(sizes[item])
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Imbalance returns maxLoad / (total/t), the load-imbalance factor (1.0 is
// perfect balance).
func Imbalance(sizes []int, buckets [][]int) float64 {
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	if total == 0 || len(buckets) == 0 {
		return 1
	}
	ideal := float64(total) / float64(len(buckets))
	return float64(MaxLoad(sizes, buckets)) / ideal
}
