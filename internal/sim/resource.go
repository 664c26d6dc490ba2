package sim

// Stats accumulates a running mean/min/max over float64 samples without
// storing them.
type Stats struct {
	n          uint64
	sum, sumSq float64
	min, max   float64
}

// Observe records one sample.
func (s *Stats) Observe(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of samples.
func (s *Stats) N() uint64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Stats) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample (0 with no samples).
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest sample (0 with no samples).
func (s *Stats) Max() float64 { return s.max }

// Sum returns the total of all samples.
func (s *Stats) Sum() float64 { return s.sum }

// Var returns the population variance (0 with fewer than 2 samples).
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		return 0
	}
	return v
}
