package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates duration samples (e.g. transaction response times) and
// reports summary statistics. The zero value is an empty series ready to use.
type Series struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
	max     time.Duration
}

// Add records one sample.
func (s *Series) Add(d time.Duration) {
	if d > s.max {
		s.max = d
	}
	s.sum += d
	s.samples = append(s.samples, d)
	s.sorted = false
}

// Count reports the number of samples recorded.
func (s *Series) Count() int { return len(s.samples) }

// Mean reports the arithmetic mean, or zero for an empty series.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.samples))
}

// Max reports the largest sample (the paper's "worst-case response").
func (s *Series) Max() time.Duration { return s.max }

// Percentile reports the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. It returns zero for an empty series.
func (s *Series) Percentile(p float64) time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.samples[rank-1]
}

// String summarizes the series for human-readable reports.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%v max=%v p99=%v",
		s.Count(), s.Mean().Round(time.Microsecond), s.Max().Round(time.Microsecond),
		s.Percentile(99).Round(time.Microsecond))
}
