package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Dataset sizes. bsbmProducts gives about 600k triples after
// materialization; lubmUniversities about 450k. Both are large enough that
// the matcher, not per-request overhead, dominates a cold query.
const (
	bsbmProducts     = 10000
	lubmUniversities = 32
)

// request is one entry of a workload's seeded request sequence.
type request struct {
	write bool
	text  string // SPARQL query, or SPARQL update for a write
	tmpl  string // query ID the read was instantiated from ("Q6"), "" for writes
	// Writes only: the student batch inserted or deleted, and the number of
	// live batches once this write has been applied.
	batch     int
	insert    bool
	liveAfter int
}

// sequence is a deterministic request stream: the i-th call to next returns
// the same request for the same seed, whatever the timing of the calls.
type sequence interface {
	next() request
}

// seqDigest hashes the first n requests of a fresh sequence, so a run header
// can show that a seed reproduces its request stream byte for byte.
func seqDigest(s sequence, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := s.next()
		fmt.Fprintf(h, "%t|%s\n", r.write, r.text)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// deck draws indexes in proportion to integer weights without replacement:
// each round holds index i weight[i] times in a seeded shuffle, so every
// stretch of a run carries the mix's exact proportions to within a round.
type deck struct {
	r       *rand.Rand
	weights []int
	cards   []int
}

func newDeck(weights []int, r *rand.Rand) *deck { return &deck{r: r, weights: weights} }

func (d *deck) next() int {
	if len(d.cards) == 0 {
		for i, w := range d.weights {
			for j := 0; j < w; j++ {
				d.cards = append(d.cards, i)
			}
		}
		d.r.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// ---- bsbm-explore ---------------------------------------------------------

// bsbmMix weights the 12 explore queries roughly as the official explore
// mix does: point lookups on one product (Q2, Q7) dominate, each search
// query appears about once per mix.
var bsbmMix = []struct {
	id     string
	weight int
}{
	{"Q1", 1}, {"Q2", 6}, {"Q3", 1}, {"Q4", 1}, {"Q5", 1}, {"Q6", 1},
	{"Q7", 4}, {"Q8", 2}, {"Q9", 2}, {"Q10", 2}, {"Q11", 1}, {"Q12", 1},
}

// bsbmModifiers are the solution modifiers the official explore mix puts on
// the corresponding queries (ordering on a variable the repo's template
// binds where the official one orders by a label it does not select).
var bsbmModifiers = map[string]string{
	"Q1":  " ORDER BY ?label LIMIT 10",
	"Q3":  " ORDER BY ?product LIMIT 10",
	"Q4":  " ORDER BY ?product OFFSET 5 LIMIT 10",
	"Q5":  " ORDER BY ?product LIMIT 5",
	"Q8":  " ORDER BY DESC(?title) LIMIT 20",
	"Q10": " ORDER BY ?price LIMIT 10",
}

// bsbmWords are the label vocabulary of the BSBM generator, for Q6's regex.
var (
	bsbmAdjectives = []string{"swift", "glorious", "rustic", "quiet", "magic", "bright", "crimson", "gentle", "frozen", "amber"}
	bsbmNouns      = []string{"widget", "gadget", "engine", "lantern", "compass", "kettle", "drill", "anvil", "prism", "rotor"}
)

// bsbmSeq instantiates the repo's BSBM explore templates with randomly drawn
// products, offers, reviews, features, types, thresholds and regex words.
//
// Why this workload: almost every text is new, so the prepared-query and
// result caches miss and parsing, planning, search and the engine operators
// (FILTER, OPTIONAL, UNION, regex, top-k) do the work. It is the workload a
// matcher or operator change should move.
type bsbmSeq struct {
	r    *rand.Rand
	tmpl map[string]string
	mix  *deck
}

func newBSBMSeq(seed int64) *bsbmSeq {
	r := rand.New(rand.NewSource(seed*7919 + 1))
	s := &bsbmSeq{r: r, tmpl: map[string]string{}}
	for _, q := range datagen.BSBMQueries() {
		s.tmpl[q.ID] = q.Text
	}
	var w []int
	for _, m := range bsbmMix {
		w = append(w, m.weight)
	}
	s.mix = newDeck(w, r)
	return s
}

func (s *bsbmSeq) next() request {
	r := s.r
	id := bsbmMix[s.mix.next()].id
	product := func() string { return fmt.Sprintf("inst:Product%d", r.Intn(bsbmProducts)) }
	// Features follow the generator's quadratic skew toward low indexes, so
	// feature-constrained searches are mostly non-empty.
	nFeatures := bsbmProducts/5 + 40
	feature := func() string {
		u := r.Float64()
		return fmt.Sprintf("inst:ProductFeature%d", int(u*u*float64(nFeatures)))
	}
	ptype := func() string {
		if r.Intn(4) == 0 {
			return fmt.Sprintf("inst:ProductTypeBranch%d", r.Intn(4))
		}
		return fmt.Sprintf("inst:ProductType%d", r.Intn(20))
	}
	num := func() string { return fmt.Sprint(r.Intn(2000) + 1) }

	var pairs []string
	switch id {
	case "Q1":
		pairs = []string{"inst:ProductTypeBranch0", ptype(), "inst:ProductFeature0", feature(),
			"inst:ProductFeature1", feature(), "?v > 500", "?v > " + num()}
	case "Q2", "Q5":
		pairs = []string{"inst:Product0", product()}
	case "Q3":
		pairs = []string{"inst:ProductTypeBranch1", ptype(), "inst:ProductFeature0", feature(), "?v > 300", "?v > " + num()}
	case "Q4":
		pairs = []string{"inst:ProductTypeBranch0", ptype(), "inst:ProductTypeBranch1", ptype(),
			"inst:ProductFeature0", feature(), "inst:ProductFeature1", feature(),
			"?v1 > 800", "?v1 > " + num(), "?v2 > 800", "?v2 > " + num()}
	case "Q6":
		word := fmt.Sprintf("%s %s %d", bsbmAdjectives[r.Intn(len(bsbmAdjectives))],
			bsbmNouns[r.Intn(len(bsbmNouns))], r.Intn(9)+1)
		pairs = []string{`"magic"`, `"` + word + `"`}
	case "Q7", "Q8":
		pairs = []string{"inst:Product1", product()}
	case "Q9":
		pairs = []string{"inst:Review0", fmt.Sprintf("inst:Review%d", r.Intn(3*bsbmProducts))}
	case "Q10":
		pairs = []string{"inst:Product1", product(), "?price < 2800", "?price < " + fmt.Sprint(r.Intn(2500)+500)}
	case "Q11":
		pairs = []string{"inst:Offer0", fmt.Sprintf("inst:Offer%d", r.Intn(4*bsbmProducts))}
	case "Q12":
		pairs = []string{"inst:Offer1", fmt.Sprintf("inst:Offer%d", r.Intn(4*bsbmProducts))}
	}
	// One pass, so a substituted IRI is never itself substituted again.
	text := strings.NewReplacer(pairs...).Replace(s.tmpl[id]) + bsbmModifiers[id]
	return request{text: text, tmpl: id}
}

// ---- lubm-hot -------------------------------------------------------------

// lubmSeq repeats the 14 fixed LUBM query texts with Zipf weights: query k
// (1-based) has weight round(28/k), the same ranking for every seed. The
// seed orders the draws, not which query is popular, so runs on different
// seeds carry the same mix.
//
// Why this workload (lubm-hot): after warm-up the result cache answers
// nearly every request, and all 14 entries (Q6 and Q14 return ~30k and ~21k
// rows) fit the default budget, so replay, JSON writing and HTTP do the work
// and the matcher barely runs. A matcher change should show no effect here.
type lubmSeq struct {
	queries []datagen.Query
	mix     *deck
}

func newLUBMSeq(seed int64) *lubmSeq {
	s := &lubmSeq{queries: datagen.LUBMQueries()}
	var w []int
	for k := range s.queries {
		w = append(w, int(28/float64(k+1)+0.5))
	}
	s.mix = newDeck(w, rand.New(rand.NewSource(seed*104729+2)))
	return s
}

func (s *lubmSeq) next() request {
	q := s.queries[s.mix.next()]
	return request{text: q.Text, tmpl: q.ID}
}

// ---- lubm-rw --------------------------------------------------------------

// Write-mix shape for lubm-rw: one request in every block of writeEvery is
// an update, at a random position in the block, so a run of N requests
// carries exactly N/writeEvery updates; each update inserts or deletes one
// batch of studentsPerBatch synthetic graduate students; between minLive
// and maxLive batches are live at any time.
const (
	writeEvery       = 10
	studentsPerBatch = 5
	minLive          = 2
	maxLive          = 6
)

// rwSeq mixes lubm-hot's reads with student batch inserts and deletes. A
// delete always removes the oldest live batch, so every delete targets a
// batch whose insert came earlier in the sequence.
//
// Why this workload (lubm-rw): every write goes through WAL append and
// delta apply, and invalidates the cached queries whose footprint touches
// students while carrying the rest (Q3, Q4, Q11, Q12) forward, so the cache,
// transform and storage code run differently than in lubm-hot, and reads
// run over a growing delta overlay.
type rwSeq struct {
	reads    *lubmSeq
	r        *rand.Rand
	i        int   // requests issued
	writePos int   // position of the update in the current block
	live     []int // live batch ids, oldest first
	batches  int   // batches ever inserted
}

func newRWSeq(seed int64) *rwSeq {
	return &rwSeq{reads: newLUBMSeq(seed), r: rand.New(rand.NewSource(seed*15485863 + 3))}
}

func (s *rwSeq) next() request {
	if s.i%writeEvery == 0 {
		s.writePos = s.r.Intn(writeEvery)
	}
	s.i++
	if (s.i-1)%writeEvery != s.writePos {
		return s.reads.next()
	}
	del := len(s.live) >= minLive && (len(s.live) >= maxLive || s.r.Intn(2) == 0)
	var b int
	if del {
		b, s.live = s.live[0], s.live[1:]
	} else {
		b = s.batches
		s.batches++
		s.live = append(s.live, b)
	}
	verb := "DELETE DATA"
	if !del {
		verb = "INSERT DATA"
	}
	var sb strings.Builder
	sb.WriteString(verb + " {\n")
	for _, t := range studentBatch(b) {
		sb.WriteString(t.String() + "\n")
	}
	sb.WriteString("}")
	return request{write: true, text: sb.String(), batch: b, insert: !del, liveAfter: len(s.live)}
}

// LUBM IRIs the synthetic students attach to; every generated LUBM dataset
// has them (the stock queries reference them too).
const (
	lubmUB     = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	lubmDept0  = "http://www.Department0.University0.edu"
	lubmUniv0  = "http://www.University0.edu"
	lubmCourse = lubmDept0 + "/GraduateCourse0"
	lubmAdvis  = lubmDept0 + "/AssociateProfessor0"
	// studentPrefix marks synthetic students; no generated entity uses it.
	studentPrefix = lubmDept0 + "/BenchGraduateStudent"
)

// studentIRI names student i of batch b.
func studentIRI(b, i int) string { return fmt.Sprintf("%s%d_%d", studentPrefix, b, i) }

// studentBatch returns batch b's triples, materialized with the LUBM rules
// exactly as the base data was (supertypes, degreeFrom, hasAlumnus), so the
// server and the oracle see the same facts. Every student has the same shape
// and none refers to another, so each live batch adds the same number of
// rows to a query's answer.
func studentBatch(b int) []rdf.Triple {
	ub := func(l string) rdf.Term { return rdf.NewIRI(lubmUB + l) }
	var raw []rdf.Triple
	for i := 0; i < studentsPerBatch; i++ {
		x := rdf.NewIRI(studentIRI(b, i))
		raw = append(raw,
			rdf.Triple{S: x, P: rdf.TypeTerm, O: ub("GraduateStudent")},
			rdf.Triple{S: x, P: ub("memberOf"), O: rdf.NewIRI(lubmDept0)},
			rdf.Triple{S: x, P: ub("undergraduateDegreeFrom"), O: rdf.NewIRI(lubmUniv0)},
			rdf.Triple{S: x, P: ub("takesCourse"), O: rdf.NewIRI(lubmCourse)},
			rdf.Triple{S: x, P: ub("advisor"), O: rdf.NewIRI(lubmAdvis)},
		)
	}
	return datagen.Materialize(raw, datagen.LUBMRules())
}

// ---- datasets -------------------------------------------------------------

// generateData returns the dataset a workload serves: the repository's
// standard generator output (datagen seed 1, as `turbohom -dataset` builds
// it) at the benchmark's scale. The benchmark seed varies the requests, not
// the data, so runs on different seeds measure the same store.
func generateData(wl string) []rdf.Triple {
	if wl == "bsbm-explore" {
		return datagen.BSBMDataset(bsbmProducts).Triples
	}
	return datagen.LUBMDataset(lubmUniversities).Triples
}

// newSequence returns a fresh request sequence for the workload.
func newSequence(wl string, seed int64) sequence {
	switch wl {
	case "bsbm-explore":
		return newBSBMSeq(seed)
	case "lubm-hot":
		return newLUBMSeq(seed)
	}
	return newRWSeq(seed)
}
