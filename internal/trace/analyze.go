package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReadEvents parses a JSONL trace stream back into events, preserving
// file order. Blank lines are skipped. A malformed *final* non-blank line
// is tolerated and dropped — a crashed or interrupted writer tears the
// tail of the file, and the events before it are still a valid partial
// trace. A malformed line with well-formed lines after it is real
// corruption and aborts with an error naming its line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	var pendingErr error // parse error that is forgiven only if it stays last
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			pendingErr = fmt.Errorf("trace line %d: %w", line, err)
			continue
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Breakdown is the time decomposition of one tuning process, in
// simulated cycles. Rating + Retry + Verify + Overhead = Total; the
// compile columns are counts because compilation costs no simulated time
// (cache resolutions are charged only their injected-fault backoff and
// verification runs).
type Breakdown struct {
	// Tune is the process identity ("bench/machine/method/dataset").
	Tune string
	// Total is the tune's final TuningCycles ledger.
	Total int64
	// Rating is time spent in rating invocations net of fault recovery.
	Rating int64
	// Retry is fault-recovery time: hang timeouts and backoff inside
	// rating jobs plus compile-failure backoff during resolutions.
	Retry int64
	// Verify is golden-output verification time across resolutions.
	Verify int64
	// Overhead is the residual ledger time: profiling runs, baseline and
	// winner measurements, and any other non-rating charges.
	Overhead int64
	// Invocations is total TS invocations; Rounds the elimination rounds
	// run; Ratings the rate events observed (incl. method-switch retries).
	Invocations int64
	Rounds      int
	Ratings     int
	// Misses, Hits and Shared count cache resolutions by outcome; Dedups
	// the candidate ratings skipped by fingerprint dedup; Quarantines the
	// candidates dropped as miscompiled; Escalations the RBR escalations.
	Misses      int
	Hits        int
	Shared      int
	Dedups      int
	Quarantines int
	Escalations int
}

// RoundEvent is one row of a tune's elimination timeline.
type RoundEvent struct {
	// Round is the 1-based round number; Candidates the flags entering it.
	Round      int
	Candidates int
	// Outcome is "removed" or "stopped"; Flag and Improvement describe the
	// removal when there was one.
	Outcome     string
	Flag        string
	Improvement float64
	// Cycles is the cumulative tune ledger after the round; Ratings the
	// rate events the round consumed (including method-switch re-rates);
	// Dedups the ratings it skipped.
	Cycles  int64
	Ratings int
	Dedups  int
}

// Timeline is the per-round elimination history of one tuning process.
type Timeline struct {
	// Tune is the process identity; Winner its final flag set.
	Tune   string
	Winner string
	// Rounds lists the rounds in order.
	Rounds []RoundEvent
}

// Analysis is the digest of a trace file: one Breakdown and one Timeline
// per tuning process, in trace order.
type Analysis struct {
	// Breakdowns holds one time decomposition per tune.
	Breakdowns []Breakdown
	// Timelines holds one elimination history per tune.
	Timelines []Timeline
}

// Analyze digests events (as read by ReadEvents) into per-tune
// breakdowns and timelines. Events outside any tune (cells, trials,
// bench phases) are ignored.
func Analyze(events []Event) Analysis {
	var a Analysis
	idx := map[string]int{} // tune -> index in Breakdowns/Timelines
	cur := func(tune string) int {
		i, ok := idx[tune]
		if !ok {
			i = len(a.Breakdowns)
			idx[tune] = i
			a.Breakdowns = append(a.Breakdowns, Breakdown{Tune: tune})
			a.Timelines = append(a.Timelines, Timeline{Tune: tune})
		}
		return i
	}
	for _, ev := range events {
		if ev.Tune == "" {
			continue
		}
		i := cur(ev.Tune)
		b := &a.Breakdowns[i]
		tl := &a.Timelines[i]
		switch ev.Kind {
		case KindRoundStart:
			tl.Rounds = append(tl.Rounds, RoundEvent{Round: ev.Round, Candidates: int(ev.Count)})
			b.Rounds++
		case KindRoundEnd:
			if n := len(tl.Rounds); n > 0 {
				r := &tl.Rounds[n-1]
				r.Outcome = ev.Outcome
				r.Flag = ev.Flag
				r.Improvement = ev.Improvement
				r.Cycles = ev.Cycles
			}
		case KindRate:
			b.Rating += ev.JobCycles - ev.RetryCycles
			b.Retry += ev.RetryCycles
			b.Ratings++
			if n := len(tl.Rounds); n > 0 {
				tl.Rounds[n-1].Ratings++
			}
		case KindCache:
			b.Retry += ev.RetryCycles
			b.Verify += ev.VerifyCycles
			switch ev.Outcome {
			case "hit":
				b.Hits++
			case "miss":
				b.Misses++
			case "shared":
				b.Shared++
			}
		case KindDedup:
			b.Dedups++
			if n := len(tl.Rounds); n > 0 {
				tl.Rounds[n-1].Dedups++
			}
		case KindQuarantine:
			b.Quarantines++
		case KindEscalate:
			b.Escalations++
		case KindTuneEnd:
			b.Total = ev.Cycles
			b.Invocations = ev.Invocations
			tl.Winner = ev.Detail
		}
	}
	for i := range a.Breakdowns {
		b := &a.Breakdowns[i]
		b.Overhead = b.Total - b.Rating - b.Retry - b.Verify
	}
	return a
}

// FormatBreakdown renders the breakdowns as the peak-trace time table:
// one row per tune, cycle columns with percent-of-total, then compile
// and search counts.
func FormatBreakdown(bs []Breakdown) string {
	var sb strings.Builder
	sb.WriteString("Where tuning time goes (simulated cycles)\n")
	sb.WriteString(fmt.Sprintf("%-38s %14s %22s %18s %18s %18s %8s\n",
		"tune", "total", "rating", "retry", "verify", "overhead", "invoc"))
	for _, b := range bs {
		pct := func(v int64) string {
			if b.Total <= 0 {
				return fmt.Sprintf("%d", v)
			}
			return fmt.Sprintf("%d (%4.1f%%)", v, 100*float64(v)/float64(b.Total))
		}
		sb.WriteString(fmt.Sprintf("%-38s %14d %22s %18s %18s %18s %8d\n",
			b.Tune, b.Total, pct(b.Rating), pct(b.Retry), pct(b.Verify), pct(b.Overhead), b.Invocations))
		sb.WriteString(fmt.Sprintf("%-38s compiles: %d miss / %d hit / %d shared · %d dedup-skips · %d ratings over %d rounds · %d quarantined · %d escalations\n",
			"", b.Misses, b.Hits, b.Shared, b.Dedups, b.Ratings, b.Rounds, b.Quarantines, b.Escalations))
	}
	return sb.String()
}

// FormatTimeline renders the elimination timelines: one block per tune,
// one row per round showing candidates in, ratings spent, and the
// removal decision.
func FormatTimeline(ts []Timeline) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(fmt.Sprintf("Elimination timeline: %s\n", t.Tune))
		sb.WriteString(fmt.Sprintf("  %5s %10s %8s %8s %-10s %-22s %12s %14s\n",
			"round", "candidates", "ratings", "dedups", "outcome", "flag", "improve", "cycles"))
		for _, r := range t.Rounds {
			flag := r.Flag
			if flag == "" {
				flag = "-"
			}
			sb.WriteString(fmt.Sprintf("  %5d %10d %8d %8d %-10s %-22s %11.2f%% %14d\n",
				r.Round, r.Candidates, r.Ratings, r.Dedups, r.Outcome, flag, 100*r.Improvement, r.Cycles))
		}
		if t.Winner != "" {
			sb.WriteString(fmt.Sprintf("  winner: %s\n", t.Winner))
		}
	}
	return sb.String()
}
