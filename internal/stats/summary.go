package stats

import "math"

// Summary accumulates streaming first- and second-moment statistics using
// Welford's numerically stable algorithm, plus min and max. It is used
// wherever bdbench needs cheap running statistics: column profiles,
// generation-rate probes, per-step pipeline timings.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Count returns the number of observed values.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the running mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the sample variance (0 if fewer than two values).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observed value (NaN if empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observed value (NaN if empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}
