// Package geo provides the country database used for the paper's
// Tables 1 and 2. The real study used MaxMind GeoLite2; the simulated
// world assigns each AS one or more ISO country codes at generation
// time, and this package aggregates per-country counts the way the
// paper does: an AS is counted in every country its address space maps
// to, so an AS may appear under several countries.
package geo

import (
	"sort"

	"repro/internal/routing"
)

// Countries lists the codes used by the synthetic population,
// roughly mirroring the representation in the paper's Tables 1-2.
var Countries = []string{
	"US", "BR", "RU", "DE", "GB", "PL", "UA", "IN", "AU", "CA",
	"DZ", "MA", "SZ", "BZ", "BF", "XK", "BA", "SC", "WF", "CI",
	"FR", "NL", "JP", "CN", "KR", "IT", "ES", "MX", "AR", "ZA",
}

// DB maps ASNs to country sets.
type DB struct {
	byASN map[routing.ASN][]string
}

// New returns an empty database.
func New() *DB { return &DB{byASN: make(map[routing.ASN][]string)} }

// Assign records the countries for an AS.
func (db *DB) Assign(asn routing.ASN, countries ...string) { db.byASN[asn] = countries }

// CountryRow is one row of a per-country aggregation (Tables 1-2).
type CountryRow struct {
	Country        string
	ASes           int
	ReachableASes  int
	Targets        int
	ReachableAddrs int
}

// ASFraction returns the reachable-AS share.
func (r CountryRow) ASFraction() float64 {
	if r.ASes == 0 {
		return 0
	}
	return float64(r.ReachableASes) / float64(r.ASes)
}

// AddrFraction returns the reachable-target share.
func (r CountryRow) AddrFraction() float64 {
	if r.Targets == 0 {
		return 0
	}
	return float64(r.ReachableAddrs) / float64(r.Targets)
}

// Aggregate builds per-country rows. perAS supplies (targets,
// reachableAddrs, reachable) per ASN; an AS contributes to every country
// assigned to it (the paper's multi-counting).
func (db *DB) Aggregate(perAS map[routing.ASN]ASStat) []CountryRow {
	rows := make(map[string]*CountryRow)
	for asn, st := range perAS {
		for _, c := range db.byASN[asn] {
			row := rows[c]
			if row == nil {
				row = &CountryRow{Country: c}
				rows[c] = row
			}
			row.ASes++
			row.Targets += st.Targets
			row.ReachableAddrs += st.ReachableAddrs
			if st.Reachable {
				row.ReachableASes++
			}
		}
	}
	out := make([]CountryRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// ASStat is the per-AS input to Aggregate.
type ASStat struct {
	Targets        int
	ReachableAddrs int
	Reachable      bool
}

// TopByASCount returns the n rows with the most ASes (Table 1 ordering).
func TopByASCount(rows []CountryRow, n int) []CountryRow {
	s := append([]CountryRow(nil), rows...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].ASes != s[j].ASes {
			return s[i].ASes > s[j].ASes
		}
		return s[i].Country < s[j].Country
	})
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

// TopByAddrFraction returns the n rows with the highest share of
// reachable targets (Table 2 ordering).
func TopByAddrFraction(rows []CountryRow, n int) []CountryRow {
	s := append([]CountryRow(nil), rows...)
	sort.Slice(s, func(i, j int) bool {
		fi, fj := s[i].AddrFraction(), s[j].AddrFraction()
		if fi != fj {
			return fi > fj
		}
		return s[i].Country < s[j].Country
	})
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}
