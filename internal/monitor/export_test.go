package monitor

// OpenViolations returns copies of the violations open so far, in onset
// order: the part of a monitor's state no timeline shows until it closes.
func (m *Monitor) OpenViolations() []Violation {
	out := make([]Violation, len(m.open))
	for i, v := range m.open {
		out[i] = *v
	}
	return out
}
