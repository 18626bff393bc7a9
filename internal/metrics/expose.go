package metrics

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of every family in a registry, taken
// after the OnScrape bridges have run. WriteText renders it as Prometheus
// text exposition; Sample and CounterValue read single series from it.
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric family with all its series, series sorted by
// label-value tuple.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Buckets []float64 // histogram families only
	Series  []Sample
}

// Sample is one labeled series' current value. Counters populate Count,
// gauges populate Value, histograms populate Hist.
type Sample struct {
	LabelValues []string
	Count       uint64
	Value       float64
	Hist        *HistSample
}

// HistSample is a histogram series' state: per-bucket (non-cumulative)
// counts aligned with the family's Buckets plus a final +Inf slot, and the
// running sum of observations.
type HistSample struct {
	BucketCounts []uint64
	Sum          float64
}

// Count returns the histogram's total observation count.
func (h *HistSample) Count() uint64 {
	var n uint64
	for _, c := range h.BucketCounts {
		n += c
	}
	return n
}

// Family returns the named family snapshot, or nil.
func (s *Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Sample returns the series with the given label values from the named
// family, or nil.
func (s *Snapshot) Sample(name string, labelValues ...string) *Sample {
	f := s.Family(name)
	if f == nil {
		return nil
	}
	for i := range f.Series {
		if equalValues(f.Series[i].LabelValues, labelValues) {
			return &f.Series[i]
		}
	}
	return nil
}

// CounterValue returns the named counter series' value (0 if absent).
func (s *Snapshot) CounterValue(name string, labelValues ...string) uint64 {
	if smp := s.Sample(name, labelValues...); smp != nil {
		return smp.Count
	}
	return 0
}

func equalValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Gather runs the OnScrape bridges, then snapshots every family. The
// returned snapshot is detached: later metric activity does not mutate it.
func (r *Registry) Gather() *Snapshot {
	r.runHooks()
	fams := r.sortedFamilies()
	snap := &Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:    f.name,
			Help:    f.help,
			Kind:    f.kind,
			Labels:  f.labels,
			Buckets: f.buckets,
		}
		for _, c := range f.sortedChildren() {
			smp := Sample{LabelValues: c.labelValues}
			switch f.kind {
			case KindCounter:
				smp.Count = c.n.Load()
			case KindGauge:
				smp.Value = math.Float64frombits(c.bits.Load())
			case KindHistogram:
				h := &HistSample{
					BucketCounts: make([]uint64, len(c.bucketN)),
					Sum:          math.Float64frombits(c.bits.Load()),
				}
				for i := range c.bucketN {
					h.BucketCounts[i] = c.bucketN[i].Load()
				}
				smp.Hist = h
			}
			fs.Series = append(fs.Series, smp)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WriteText renders the registry in Prometheus text exposition format
// version 0.0.4. Families appear in name order, series in label-value
// order; histograms emit cumulative le buckets ending in +Inf, then _sum
// and _count. Output is byte-for-byte deterministic for a given state.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Gather().WriteText(w)
}

// WriteText renders an already-gathered snapshot (see Registry.WriteText).
func (s *Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for fi := range s.Families {
		f := &s.Families[fi]
		bw.WriteString("# HELP ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.Help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Kind.String())
		bw.WriteByte('\n')
		for si := range f.Series {
			smp := &f.Series[si]
			switch f.Kind {
			case KindCounter:
				writeSeries(bw, f.Name, f.Labels, smp.LabelValues, "", "", formatUint(smp.Count))
			case KindGauge:
				writeSeries(bw, f.Name, f.Labels, smp.LabelValues, "", "", formatFloat(smp.Value))
			case KindHistogram:
				var cum uint64
				for bi, c := range smp.Hist.BucketCounts {
					cum += c
					le := "+Inf"
					if bi < len(f.Buckets) {
						le = formatFloat(f.Buckets[bi])
					}
					writeSeries(bw, f.Name+"_bucket", f.Labels, smp.LabelValues, "le", le, formatUint(cum))
				}
				writeSeries(bw, f.Name+"_sum", f.Labels, smp.LabelValues, "", "", formatFloat(smp.Hist.Sum))
				writeSeries(bw, f.Name+"_count", f.Labels, smp.LabelValues, "", "", formatUint(cum))
			}
		}
	}
	return bw.Flush()
}

// writeSeries emits one sample line: name{labels} value. extraName/extraVal
// append a trailing label (the histogram le) after the family labels.
func writeSeries(bw *bufio.Writer, name string, labels, values []string, extraName, extraVal, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabelValue(values[i]))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(extraVal)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// text-format spec.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text (quotes are legal
// there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatFloat renders floats the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the text exposition — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WriteText(w)
	})
}
