package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times. It is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuMillis returns a process's utime+stime from /proc/<pid>/stat, in
// milliseconds.
func cpuMillis(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name, field 2, is parenthesised and
// may itself hold spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line")
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state), so field k is fields[k-3].
	if len(fields) < 13 {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the name", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTicks, nil
}

// peakRSSMiB returns a process's peak resident set size (VmHWM) from
// /proc/<pid>/status, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

// hostCPU is the aggregate "cpu" line of /proc/stat: total and steal
// ticks across all CPUs.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(raw))
}

func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("procfs: malformed cpu line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("procfs: cpu field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9, 10) are already inside user and
		// nice.
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(from, to hostCPU) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}
