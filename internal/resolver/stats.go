package resolver

// Add accumulates o into s field-wise. Addition is commutative, so
// summing resolver stats in any order (map iteration over a world's
// resolvers) yields the same total.
func (s *Stats) Add(o Stats) {
	s.ClientQueries += o.ClientQueries
	s.Refused += o.Refused
	s.Responded += o.Responded
	s.UpstreamQueries += o.UpstreamQueries
	s.UpstreamTCP += o.UpstreamTCP
	s.Forwarded += o.Forwarded
	s.Timeouts += o.Timeouts
	s.ServFail += o.ServFail
	s.Crashes += o.Crashes
}
