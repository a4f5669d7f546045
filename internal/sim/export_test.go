package sim

// QueueRetained counts the slots of n's event-queue backing array beyond its
// length that still point at an event.
func QueueRetained(n *Network) int {
	retained := 0
	for _, e := range n.queue[len(n.queue):cap(n.queue)] {
		if e != nil {
			retained++
		}
	}
	return retained
}

// AttrRecords returns the number of records n's attribute table resolves.
func AttrRecords(n *Network) int { return n.attrs.Len() }
