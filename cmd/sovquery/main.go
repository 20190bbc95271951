// Command sovquery answers range queries against a telemetry store written
// by sovfleet -cloud (DESIGN.md §14): a vehicle range, a virtual-time
// window, and an optional kind filter select a rectangle of the fleet's
// event space, streamed as JSONL. Results are byte-identical regardless of
// the -workers value sovfleet ran with.
//
// Usage:
//
//	sovquery -dir telemetry/ [-vehicles 100-200] [-from 3h] [-to 4h]
//	         [-kinds reactive-brake,collision] [-count] [-stats]
//
// Examples:
//
//	# all reactive-brake events for vehicles 100-200 in hour 3
//	sovquery -dir tel/ -vehicles 100-200 -from 3h -to 4h -kinds reactive-brake
//
//	# epoch snapshots for one vehicle
//	sovquery -dir tel/ -vehicles 7-7 -kinds epoch
//
//	# how many collisions fleet-wide?
//	sovquery -dir tel/ -kinds collision -count
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sov/internal/telemetry"
)

func main() {
	dir := flag.String("dir", "", "telemetry store directory (required)")
	vehicles := flag.String("vehicles", "", "vehicle id range `lo-hi` (or a single id; empty = all)")
	from := flag.Duration("from", 0, "virtual-time window start (e.g. 3h)")
	to := flag.Duration("to", 0, "virtual-time window end (0 = unbounded)")
	kinds := flag.String("kinds", "", "comma-separated event kinds (epoch,assign,pickup,dropoff,collision,reactive-brake,halt,blackbox,metric,log); rows then come time-major per kind")
	count := flag.Bool("count", false, "print only the matching event count")
	stats := flag.Bool("stats", false, "print store stats (runs, entries, read amplification) to stderr")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "sovquery: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	if *from < 0 || *to < 0 || *to != 0 && *to < *from {
		fmt.Fprintf(os.Stderr, "sovquery: bad window -from %v -to %v (want 0 <= from <= to, or -to 0 for no end)\n", *from, *to)
		os.Exit(2)
	}

	var q telemetry.Query
	if *vehicles != "" {
		lo, hi, err := parseRange(*vehicles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sovquery:", err)
			os.Exit(2)
		}
		q.VehicleMin, q.VehicleMax, q.VehicleBounded = lo, hi, true
	}
	q.TMinMs = telemetry.VirtualMs(*from)
	q.TMaxMs = telemetry.VirtualMs(*to)
	for _, name := range strings.Split(*kinds, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := telemetry.KindByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "sovquery: unknown kind %q\n", name)
			os.Exit(2)
		}
		q.Kinds = append(q.Kinds, k)
	}

	if !telemetry.Exists(*dir) {
		fmt.Fprintf(os.Stderr, "sovquery: no telemetry store in %s (no MANIFEST or wal.log)\n", *dir)
		os.Exit(1)
	}

	// Open read-only-ish: NoCompact so a query never rewrites the store.
	opts := telemetry.DefaultOptions()
	opts.NoCompact = true
	s, err := telemetry.Open(*dir, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sovquery:", err)
		os.Exit(1)
	}

	var n int64
	if *count {
		n, err = s.Count(q)
		if err == nil {
			fmt.Println(n)
		}
	} else {
		w := bufio.NewWriterSize(os.Stdout, 1<<16)
		n, err = s.WriteJSONL(w, q)
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sovquery:", err)
		os.Exit(1)
	}
	if *stats {
		st := s.Stats()
		runs, runBytes := s.Runs()
		fmt.Fprintf(os.Stderr, "sovquery: %d rows from %d runs (%d bytes on disk); read %d blocks / %d bytes, %d bloom skips\n",
			n, runs, runBytes, st.BlocksRead, st.RunBytesRead, st.BloomSkips)
	}
}

// parseRange parses "lo-hi" or a bare vehicle id.
func parseRange(s string) (lo, hi uint32, err error) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		l, err1 := strconv.ParseUint(s[:i], 10, 32)
		h, err2 := strconv.ParseUint(s[i+1:], 10, 32)
		if err1 != nil || err2 != nil || h < l {
			return 0, 0, fmt.Errorf("bad vehicle range %q (want lo-hi)", s)
		}
		return uint32(l), uint32(h), nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vehicle id %q", s)
	}
	return uint32(v), uint32(v), nil
}
