package trace

// SectionsBuilt is how many deferred sender sections the Replayer has
// built so far, over all its jobs.
func (rp *Replayer) SectionsBuilt() int {
	n := 0
	for _, j := range rp.jobs {
		n += j.built
	}
	return n
}
