//go:build !unix

package main

import (
	"errors"
	"time"
)

// processUsage needs getrusage; the benchmark refuses to run without it.
func processUsage() (time.Duration, float64, error) {
	return 0, 0, errors.New("benchmark: getrusage is unavailable on this platform")
}
