package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel is fixed benchmark-owned work, hash-map
// lookups over a 64Ki-entry map and sorts of a 4Ki-int slice, timed
// between operations. Its CPU time follows the speed the shared host
// gives this process at that moment: of the kernels tried (float loops,
// a dependent table walk, allocation, JSON, map lookups, sorting), these
// two tracked the explore and serve operations' own CPU time most
// closely. Each operation's CPU time is scaled to a host on which one
// pass takes calNominal, by the mean of the calibrations just before
// and just after it. The kernel never changes, so two commits compare
// through the same scale.
const (
	// calNominal is one kernel pass's CPU time on the 2-vCPU host the
	// benchmark was sized on, in a quiet period.
	calNominal = 750 * time.Microsecond
	// calEvery is the loop time between calibrations. Of the intervals
	// tried, the shortest tracked the host best; a calibration costs
	// about 3 ms, so this spends about 6% of a run on it.
	calEvery = 50 * time.Millisecond
)

var cal = newCalData()

type calData struct {
	keys []uint64
	m    map[uint64]uint64
	ints []int
	work []int
}

func newCalData() *calData {
	const entries = 1 << 16
	d := &calData{
		keys: make([]uint64, entries), m: make(map[uint64]uint64, entries),
		ints: make([]int, 4096), work: make([]int, 4096),
	}
	for i := range d.keys {
		d.keys[i] = uint64(i) * 2654435761
		d.m[d.keys[i]] = uint64(i)
	}
	x := uint32(1)
	for i := range d.ints {
		x = x*1664525 + 1013904223
		d.ints[i] = int(x)
	}
	return d
}

// pass runs the kernel once and returns a value that depends on all of
// it, so none of it is optimised away.
func (d *calData) pass() uint64 {
	var h uint64
	for i := 0; i < 10000; i++ {
		h += d.m[d.keys[(i*7919)%len(d.keys)]]
	}
	for r := 0; r < 2; r++ {
		copy(d.work, d.ints)
		sort.Ints(d.work)
		h += uint64(d.work[len(d.work)/2])
	}
	return h
}

var calSink uint64

// calibrate warms the kernel's data with one pass, then returns the
// median thread CPU time of three more.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	calSink += cal.pass()
	var d [3]time.Duration
	for k := range d {
		t := threadCPUTime()
		calSink += cal.pass()
		d[k] = threadCPUTime() - t
	}
	return medianDuration(d[:])
}

// calibrateSetup is the median of three calibrations: a set-up is
// bracketed by only two, so each is taken with more care.
func calibrateSetup() time.Duration {
	var d [3]time.Duration
	for k := range d {
		d[k] = calibrate()
	}
	return medianDuration(d[:])
}

// toRef scales CPU times measured between two calibrations, before and
// after, to reference speed: the host ran at calNominal over their
// mean.
func toRef(cpu []time.Duration, before, after time.Duration) []time.Duration {
	out := make([]time.Duration, len(cpu))
	mean := float64(before+after) / 2
	for k, c := range cpu {
		out[k] = time.Duration(float64(c) * float64(calNominal) / mean)
	}
	return out
}

// threadCPUTime is the calling thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUTime() time.Duration { return clockTime(3) }

// cpuTime is the process's CPU time (CLOCK_PROCESS_CPUTIME_ID). Under a
// paravirtualised kernel it leaves out the time the host ran other
// guests on this one's CPUs.
func cpuTime() time.Duration { return clockTime(2) }

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
