package lapack

// dot4 returns xᵀy accumulated with eight independent partial sums. A
// single accumulator chains each element's multiply-then-add on the last
// add's latency; multiple chains hide that latency and run at port
// throughput (~4x+ on long vectors). The partial sums combine pairwise in a
// fixed order, so the result is deterministic for a given length, though it
// differs in the last ulp from the single-chain loop (allowed by the kernel
// contract: accumulation-order changes are fine inside lapack as long as
// they are thread-count independent, which a serial fixed-order reduction
// trivially is).
func dot4(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+7 < n; i += 8 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
		s4 += x[i+4] * y[i+4]
		s5 += x[i+5] * y[i+5]
		s6 += x[i+6] * y[i+6]
		s7 += x[i+7] * y[i+7]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// sumsq4 returns xᵀx with the same four-chain accumulation as dot4.
func sumsq4(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		v0, v1, v2, v3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 += v0 * v0
		s1 += v1 * v1
		s2 += v2 * v2
		s3 += v3 * v3
	}
	for ; i < len(x); i++ {
		v := x[i]
		s0 += v * v
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes y[i] -= a*x[i] over the common prefix of x and y, four
// elements per step (independent iterations; the unroll only trims loop
// overhead, the element-wise arithmetic is unchanged).
func axpy(a float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] -= a * x[i]
		y[i+1] -= a * x[i+1]
		y[i+2] -= a * x[i+2]
		y[i+3] -= a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] -= a * x[i]
	}
}
