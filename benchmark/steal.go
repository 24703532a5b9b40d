package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// On a shared virtual machine the hypervisor runs other guests on this
// machine's CPUs for stretches of seconds to minutes, and the kernel counts
// that time as "steal" in /proc/stat. A wall-clock interval then stretches
// by time in which the program did not run at all: on a 2-CPU host, one
// such stretch made the same fig7 loop take 1.8 times as long for several
// minutes. The benchmark therefore takes the stolen time, summed over all
// CPUs, off every pass's wall-clock time. Summing is exact for a serial
// phase, whose one busy thread is the only one a CPU can be stolen from,
// and close for the barrier-synchronized sharded loop, where a stall of
// either worker holds up the window. With no steal the times are plain
// wall-clock.

// minStealWindow is the shortest interval the correction applies to: the
// steal counter ticks every 10 ms, so shorter intervals would be corrected
// by quantization noise.
const minStealWindow = time.Second

// machineSteal returns the stolen time summed over all CPUs, in seconds,
// from the eighth field of /proc/stat's "cpu" line in USER_HZ (1/100 s)
// ticks; 0 where the file or the field is missing.
func machineSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// unstolen returns the share of an interval of length wall, which began
// when the machine's steal counter read stealFrom, that the hypervisor did
// not take away; 1 for short intervals, for intervals without steal, and
// when the counter reports more steal than the interval lasted.
func unstolen(stealFrom float64, wall time.Duration) float64 {
	steal := machineSteal() - stealFrom
	w := wall.Seconds()
	if wall < minStealWindow || steal <= 0 || steal >= w {
		return 1
	}
	return (w - steal) / w
}
