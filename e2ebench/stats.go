package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it is reportable: at least minBeyond samples must be larger in
// rank than the one returned, so p90 needs 100 samples and p50 needs 20.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); it is for small sets of repeated measurements, not for
// latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal, idle uint64
}

// parseProcStat reads the aggregate cpu line. Guest time is already
// included in user time, so it is not added to the total again.
func parseProcStat(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("/proc/stat: short cpu line %q", sc.Text())
		}
		var v [8]uint64
		for i := range v {
			x, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat: field %d: %w", i+1, err)
			}
			v[i] = x
		}
		// user nice system idle iowait irq softirq steal
		var t cpuTicks
		for _, x := range v {
			t.total += x
		}
		t.idle = v[3] + v[4]
		t.steal = v[7]
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

func readProcStat() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	t, err := parseProcStat(f)
	return t, err == nil
}

// stealFrac is the share of the VM's CPU ticks the hypervisor stole
// between two readings.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// unstolen scales a wall-clock interval measured between two readings to
// the part of it the VM's CPUs were not stolen.
func unstolen(d time.Duration, a, b cpuTicks) time.Duration {
	return time.Duration(float64(d) * (1 - stealFrac(a, b)))
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
