// Command parload generates mixed traffic against a running paruleld and
// reports throughput and latency quantiles as JSON.
//
//	parload -url http://localhost:8467 -d 10s -c 8
//	parload -url http://n1:8467,http://n2:8467,http://n3:8467   # cluster targets
//	parload -mix assert=4,batch=2,run=1,snapshot=1 -batch 16
//	parload -stream -stream-frames 8 -batch 64   # continuous NDJSON ingest
//	parload -min-mutations-per-sec 100 -max-5xx 0 -max-transport-errors 0   # CI smoke gate
//
// With multiple -url endpoints the generator spreads sessions across them,
// follows 307 ownership redirects (caching the owner per session), and
// fails a request over to the next endpoint when a node stops answering.
//
// The self-check flags make the process exit nonzero when the run violates
// the given bounds, so CI can gate on a load run without parsing JSON.
// 429 backpressure rejections and transport-level failures are counted
// apart from 5xx: -max-5xx 0 tolerates deliberate admission-control
// rejections and node kills, while -max-429 and -max-transport-errors
// bound those separately when a run should see neither.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"parulel/internal/load"
)

func main() {
	url := flag.String("url", "http://localhost:8467", "base URL(s) of the paruleld instance(s), comma-separated for a cluster")
	sessions := flag.Int("sessions", 4, "sessions to create and spread traffic over")
	concurrency := flag.Int("c", 8, "concurrent client goroutines")
	duration := flag.Duration("d", 10*time.Second, "how long to generate load")
	mixSpec := flag.String("mix", "assert=4,batch=2,run=1,snapshot=1", "op mix weights, kind=weight comma-separated")
	batchSize := flag.Int("batch", 16, "facts per batch request (and per stream frame)")
	stream := flag.Bool("stream", false, "continuous-ingest mode: all traffic is NDJSON stream requests against a TTL+window program")
	streamFrames := flag.Int("stream-frames", 8, "NDJSON frames per stream request")
	streamTTL := flag.Int64("stream-ttl", 0, "per-fact TTL override sent with streamed facts (0 = template default)")
	runTimeout := flag.Duration("run-timeout", 10*time.Second, "deadline sent with run ops")
	seed := flag.Int64("seed", 1, "RNG seed for the op mix")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	max5xx := flag.Int("max-5xx", -1, "self-check: fail when more than this many 5xx responses (-1 = off)")
	max429 := flag.Int("max-429", -1, "self-check: fail when more than this many 429 backpressure rejections (-1 = off)")
	maxTransport := flag.Int("max-transport-errors", -1, "self-check: fail when more than this many transport-level failures (-1 = off)")
	minMutPerSec := flag.Float64("min-mutations-per-sec", 0, "self-check: fail when mutation throughput is below this")
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fail("bad -mix: %v", err)
	}
	if *stream {
		mix = load.Mix{Stream: 1}
	}
	urls := strings.Split(*url, ",")
	rep, err := load.Run(context.Background(), load.Config{
		BaseURLs:     urls,
		Sessions:     *sessions,
		Concurrency:  *concurrency,
		Duration:     *duration,
		Mix:          mix,
		BatchSize:    *batchSize,
		StreamFrames: *streamFrames,
		StreamTTL:    *streamTTL,
		RunTimeout:   *runTimeout,
		Seed:         *seed,
	})
	if err != nil {
		fail("load run failed: %v", err)
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fail("writing report: %v", err)
		}
	} else {
		os.Stdout.Write(enc)
	}

	fmt.Fprintf(os.Stderr, "parload: %d requests, %.1f mutations/sec, %d 5xx, %d 429, %d transport errors, %d redirects, %d retries\n",
		rep.Requests, rep.MutationsPerSec, rep.Errors5xx, rep.Rejected429, rep.TransportErrors, rep.Redirects, rep.Retries)
	if len(rep.Stages) > 0 {
		stages := make([]string, 0, len(rep.Stages))
		for name := range rep.Stages {
			stages = append(stages, name)
		}
		sort.Strings(stages)
		for _, name := range stages {
			st := rep.Stages[name]
			fmt.Fprintf(os.Stderr, "parload: stage %-8s p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms (%d samples)\n",
				name, st.P50MS, st.P95MS, st.P99MS, st.MaxMS, st.Count)
		}
	}

	if *max5xx >= 0 && rep.Errors5xx > *max5xx {
		fail("self-check: %d 5xx responses (limit %d)", rep.Errors5xx, *max5xx)
	}
	if *max429 >= 0 && rep.Rejected429 > *max429 {
		fail("self-check: %d 429 rejections (limit %d)", rep.Rejected429, *max429)
	}
	if *maxTransport >= 0 && rep.TransportErrors > *maxTransport {
		fail("self-check: %d transport errors (limit %d)", rep.TransportErrors, *maxTransport)
	}
	if *minMutPerSec > 0 && rep.MutationsPerSec < *minMutPerSec {
		fail("self-check: %.1f mutations/sec below the %.1f floor", rep.MutationsPerSec, *minMutPerSec)
	}
}

func parseMix(spec string) (load.Mix, error) {
	var m load.Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("want kind=weight, got %q", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad weight %q", val)
		}
		switch kind {
		case "assert":
			m.Assert = w
		case "batch":
			m.Batch = w
		case "run":
			m.Run = w
		case "snapshot":
			m.Snapshot = w
		case "stream":
			m.Stream = w
		default:
			return m, fmt.Errorf("unknown op kind %q", kind)
		}
	}
	return m, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parload: "+format+"\n", args...)
	os.Exit(1)
}
