package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// PromOptions tune the Prometheus text exposition of a recorder.
type PromOptions struct {
	// ConstLabels are attached to every sample, rendered in key order with
	// the label values escaped per the exposition format.
	ConstLabels map[string]string
}

// promNamespace prefixes every exposed metric name.
const promNamespace = "chameleon"

// WritePrometheus emits the recorder's counters, gauges and histograms in
// the Prometheus text exposition format (version 0.0.4): one HELP and one
// TYPE line per metric followed by its samples. Counters get the
// conventional _total suffix; histograms are exposed as cumulative
// _bucket{le="..."} series (log-bucketed, powers of two) closed by an
// le="+Inf" bucket plus _sum and _count. Metrics appear in a stable order
// — all counters sorted by name, then all gauges, then all histograms — so
// scrapes of an idle recorder are byte-identical. A nil recorder exposes
// nothing.
func (r *Recorder) WritePrometheus(w io.Writer, opts PromOptions) error {
	if r == nil {
		return nil
	}
	_, counters, gauges, _ := r.snapshot()
	hists := r.Histograms()
	labels := renderLabels(opts.ConstLabels)
	bw := bufio.NewWriter(w)
	emit := func(name, kind, help string, value int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, kind)
		fmt.Fprintf(bw, "%s%s %d\n", name, labels, value)
	}
	for _, name := range sortedKeys(counters) {
		metric := promNamespace + "_" + sanitizeMetricName(name) + "_total"
		emit(metric, "counter", helpFor(name, "counter"), counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		metric := promNamespace + "_" + sanitizeMetricName(name)
		emit(metric, "gauge", helpFor(name, "gauge"), gauges[name])
	}
	for _, h := range hists {
		metric := promNamespace + "_" + sanitizeMetricName(h.Name)
		fmt.Fprintf(bw, "# HELP %s %s\n", metric, escapeHelp(helpFor(h.Name, "histogram")))
		fmt.Fprintf(bw, "# TYPE %s %s\n", metric, "histogram")
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket%s %d\n", metric,
				renderLabelsWith(opts.ConstLabels, "le", fmt.Sprintf("%d", b.Le)), cum)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", metric,
			renderLabelsWith(opts.ConstLabels, "le", "+Inf"), h.Count)
		fmt.Fprintf(bw, "%s_sum%s %d\n", metric, labels, h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", metric, labels, h.Count)
	}
	return bw.Flush()
}

// renderLabelsWith renders the const labels plus one extra pair (the
// histogram's le label), keeping the const labels' sorted-key order with
// the extra pair appended last, per exposition convention.
func renderLabelsWith(labels map[string]string, key, value string) string {
	extra := sanitizeLabelName(key) + `="` + escapeLabelValue(value) + `"`
	if len(labels) == 0 {
		return "{" + extra + "}"
	}
	base := renderLabels(labels)
	return base[:len(base)-1] + "," + extra + "}"
}

func helpFor(name, kind string) string {
	return fmt.Sprintf("chameleon %s %s (see DESIGN.md section 9)", kind, name)
}

// renderLabels formats a label set as {k="v",...} with keys sorted and
// values escaped; an empty set renders as the empty string.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, sanitizeLabelName(k)+`="`+escapeLabelValue(labels[k])+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline — exactly the three escapes the
// format defines, so the output is what scrapers expect byte for byte.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '"':
			b.WriteString(`\"`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline (quotes are legal
// there).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// sanitizeMetricName maps an arbitrary counter name onto the metric name
// alphabet [a-zA-Z0-9_:], replacing every other rune with '_' and
// prefixing names that would start with a digit.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName is sanitizeMetricName without the colon (colons are
// reserved for recording rules in label-less positions).
func sanitizeLabelName(name string) string {
	return strings.ReplaceAll(sanitizeMetricName(name), ":", "_")
}
