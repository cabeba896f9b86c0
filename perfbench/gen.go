package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// rng is splitmix64: a tiny generator whose sequence is fixed by this
// file alone, so a seed names the same inputs on every Go release.
type rng struct{ s uint64 }

// newRNG derives the generator of one round of one run.
func newRNG(seed int64, round int) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(round)*0xD1B54A32D192ED03 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// distinct returns k distinct values from [lo, lo+n), in draw order.
func (r *rng) distinct(k, lo, n int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := lo + r.intn(n)
		dup := false
		for _, w := range out {
			dup = dup || w == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// step is one request of a workload's bulk load, optionally followed by
// a commit whose time the load reports back.
type step struct {
	src    string
	commit bool
}

// deposit is one account credit inside a commit op.
type deposit struct {
	account int
	amount  int64
}

// op is one closed-loop operation: an OPAL block sent over the wire,
// optionally followed by a commit, plus what the oracle and the traced
// replay need to know about it.
type op struct {
	kind  string // send, deposit, eq, range, join or at
	src   string // OPAL block sent to the server
	sends int    // message sends the block executes, as the generator wrote them
	// want is the reply the model predicts: the exact printString, or for
	// an unordered result the space-separated tokens in sorted order.
	want      string
	unordered bool
	commit    bool
	// abort makes the host abort its transaction after the op's reply,
	// outside the op's latency but inside the timed phase: query results
	// live in the session's workspace until the transaction ends, so a
	// host that never aborted would hold every result it was ever sent.
	abort bool

	query    string    // calculus text of eq, range and join ops
	path     string    // path expression of at ops
	deposits []deposit // credits of deposit ops
}

// chunk is how many objects one bulk-load request creates.
const chunk = 250

func intList(vals []int64) string {
	var b strings.Builder
	b.WriteString("#(")
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	b.WriteString(")")
	return b.String()
}

// accountClasses defines the account classes send and commit share.
// Savings overrides rate and bonus, so a send to a Savings account looks
// its method up one class deeper than a send to an Account.
var accountClasses = []step{
	{src: `Object subclass: 'Account' instVarNames: #('id' 'balance')`},
	{src: `Account subclass: 'Savings' instVarNames: #()`},
	{src: `Account compile: 'id ^id'`},
	{src: `Account compile: 'balance ^balance'`},
	{src: `Account compile: 'setId: i balance: b id := i. balance := b'`},
	{src: `Account compile: 'deposit: n balance := balance + n. ^balance'`},
	{src: `Account compile: 'rate ^2'`},
	{src: `Account compile: 'bonus ^10'`},
	{src: `Account compile: 'interest ^balance * self rate // 100'`},
	{src: `Account compile: 'isRich ^balance > 5000'`},
	{src: `Account compile: 'score ^self isRich ifTrue: [self interest + self bonus] ifFalse: [self interest]'`},
	{src: `Savings compile: 'rate ^5'`},
	{src: `Savings compile: 'bonus ^super bonus * 2'`},
	{src: `World at: #accts put: Dictionary new`},
}

// loadAccounts returns the requests that fill World!accts with accounts
// 1..len(balances); savings[i] makes account i+1 a Savings account.
func loadAccounts(balances []int64, savings []bool) []step {
	var steps []step
	for base := 0; base < len(balances); base += chunk {
		end := min(base+chunk, len(balances))
		kinds := make([]int64, end-base)
		for i := range kinds {
			if savings != nil && savings[base+i] {
				kinds[i] = 1
			}
		}
		steps = append(steps, step{src: fmt.Sprintf(
			"| d bs ks | d := World!accts. bs := %s. ks := %s. "+
				"1 to: %d do: [:i | d at: %d + i put: (((ks at: i) = 1 ifTrue: [Savings new] ifFalse: [Account new]) setId: %d + i balance: (bs at: i))]. nil",
			intList(balances[base:end]), intList(kinds), end-base, base, base)})
	}
	steps[len(steps)-1].commit = true
	return steps
}

// --- send ---

const (
	sendAccounts   = 2000
	sendKeysPerOp  = 80
	sendRichAbove  = 5000
	sendMaxBalance = 10000
)

type sendModel struct {
	balances []int64
	savings  []bool
}

// score is the Go twin of Account>>score and Savings' overrides.
func (m *sendModel) score(account int) int64 {
	bal, sav := m.balances[account-1], m.savings[account-1]
	rate, bonus := int64(2), int64(10)
	if sav {
		rate, bonus = 5, 20
	}
	if bal > sendRichAbove {
		return bal*rate/100 + bonus
	}
	return bal * rate / 100
}

// scoreSends counts the sends one key costs: at:, score, isRich, >,
// interest, *, rate, //, the outer +; rich adds bonus and +; a rich
// Savings account adds super bonus and *.
func (m *sendModel) scoreSends(account int) int {
	n := 9
	if m.balances[account-1] > sendRichAbove {
		n += 2
		if m.savings[account-1] {
			n += 2
		}
	}
	return n
}

func sendSetup(r *rng) ([]step, *sendModel) {
	m := &sendModel{balances: make([]int64, sendAccounts), savings: make([]bool, sendAccounts)}
	for i := range m.balances {
		m.balances[i] = int64(r.intn(sendMaxBalance))
		m.savings[i] = r.intn(2) == 1
	}
	steps := append(append([]step(nil), accountClasses...), loadAccounts(m.balances, m.savings)...)
	return steps, m
}

func sendOps(r *rng, m *sendModel, n int) [][]op {
	ops := make([]op, n)
	for i := range ops {
		keys := make([]int64, sendKeysPerOp)
		var sum int64
		sends := 1 // do:
		for j := range keys {
			k := 1 + r.intn(sendAccounts)
			keys[j] = int64(k)
			sum += m.score(k)
			sends += m.scoreSends(k)
		}
		ops[i] = op{
			kind:  "send",
			src:   fmt.Sprintf("| d s | d := World!accts. s := 0. %s do: [:k | s := s + (d at: k) score]. s", intList(keys)),
			sends: sends,
			want:  strconv.FormatInt(sum, 10),
		}
	}
	return [][]op{ops}
}

// --- commit ---

const (
	commitAccounts   = 4000
	commitConns      = 2
	commitMaxDeposit = 100
	commitMaxBalance = 10000
)

// commitModel is the generator's own ledger: initial balances and every
// credit it issued, in the order each connection issues them.
type commitModel struct {
	initial []int64
	// credits[a-1] lists the (connection, op index, amount) of every
	// credit to account a, in issue order.
	credits [][]credit
}

type credit struct {
	conn, op int
	amount   int64
}

func commitSetup(r *rng) ([]step, *commitModel) {
	m := &commitModel{initial: make([]int64, commitAccounts), credits: make([][]credit, commitAccounts)}
	for i := range m.initial {
		m.initial[i] = int64(r.intn(commitMaxBalance))
	}
	steps := append(append([]step(nil), accountClasses...), loadAccounts(m.initial, nil)...)
	return steps, m
}

// commitOps gives connection c the accounts of its own half, so no two
// ops ever write the same object and no commit can conflict.
func commitOps(r *rng, m *commitModel, n int) [][]op {
	per := commitAccounts / commitConns
	bal := append([]int64(nil), m.initial...)
	out := make([][]op, commitConns)
	for c := range out {
		out[c] = make([]op, n/commitConns)
		for i := range out[c] {
			keys := r.distinct(1+r.intn(4), 1+c*per, per)
			var terms []string
			var sum int64
			deps := make([]deposit, len(keys))
			for j, k := range keys {
				amt := int64(1 + r.intn(commitMaxDeposit))
				deps[j] = deposit{account: k, amount: amt}
				bal[k-1] += amt
				sum += bal[k-1]
				m.credits[k-1] = append(m.credits[k-1], credit{conn: c, op: i, amount: amt})
				terms = append(terms, fmt.Sprintf("((d at: %d) deposit: %d)", k, amt))
			}
			out[c][i] = op{
				kind:     "deposit",
				src:      "| d | d := World!accts. " + strings.Join(terms, " + "),
				sends:    4*len(keys) - 1, // at:, deposit:, its + per key; a + between terms
				want:     strconv.FormatInt(sum, 10),
				commit:   true,
				deposits: deps,
			}
		}
	}
	return out
}

// --- query ---

const (
	queryEmps      = 1500 // members of the indexed Set World!emps
	querySalaries  = 500  // distinct salary values, so equality hits ~3 rows
	queryRangeSpan = 40   // salary range width: 4 salary values, ~12 rows
	queryDepts     = 6
	queryXEmps     = 60  // employees of the §5.1 structure X
	queryHist      = 48  // employees with deep salary histories
	queryHistSteps = 160 // history commits; each updates about a third of them
	// queryAbortEvery is how many requests the read-only host sends
	// between aborts of its transaction.
	queryAbortEvery = 10
)

// queryModel holds the data as loaded plus the history schedule.
type queryModel struct {
	empSalary []int64 // World!emps member i+1's salary

	deptName    []string
	deptBudget  []int64
	deptMgrs    [][]string
	xSalary     []int64
	xDepts      [][]int // indexes into dept*
	histInitial []int64
	// histUpdates[s] lists the (employee, salary) writes of history step
	// s; step s commits as the (s+2)-th commit of the load, after the
	// load commit itself.
	histUpdates [][][2]int64
}

func querySalary(r *rng) int64 { return 1000 + 10*int64(r.intn(querySalaries)) }

func querySetup(r *rng) ([]step, *queryModel) {
	m := &queryModel{}
	steps := []step{
		{src: `Object subclass: 'Employee' instVarNames: #('id' 'salary')`},
		{src: `Employee compile: 'id ^id'`},
		{src: `Employee compile: 'salary: s salary := s'`},
		{src: `Employee compile: 'setId: i salary: s id := i. salary := s'`},
		{src: `World at: #emps put: Set new. World at: #hist put: Dictionary new`},
	}
	m.empSalary = make([]int64, queryEmps)
	for i := range m.empSalary {
		m.empSalary[i] = querySalary(r)
	}
	for base := 0; base < queryEmps; base += chunk {
		end := min(base+chunk, queryEmps)
		steps = append(steps, step{src: fmt.Sprintf(
			"| s bs | s := World!emps. bs := %s. 1 to: %d do: [:i | s add: (Employee new setId: %d + i salary: (bs at: i))]. nil",
			intList(m.empSalary[base:end]), end-base, base)})
	}
	steps = append(steps, step{src: `World!emps indexOn: 'salary'`})

	// The §5.1 structure: departments with managers and budgets, and
	// employees naming the departments they work in. Budgets are
	// multiples of 100 and salaries end in 3 or 7, so salary never equals
	// factor * budget and float rounding cannot flip a comparison.
	var b strings.Builder
	b.WriteString("| x ds d | x := Dictionary new. World at: #X put: x. ds := Dictionary new. x at: 'Departments' put: ds. x at: 'Employees' put: Dictionary new. ")
	for i := 0; i < queryDepts; i++ {
		m.deptName = append(m.deptName, fmt.Sprintf("D%d", i))
		m.deptBudget = append(m.deptBudget, 100*int64(1000+r.intn(2000)))
		var mgrs []string
		for j := 0; j <= r.intn(3); j++ {
			mgrs = append(mgrs, fmt.Sprintf("M%d_%d", i, j))
		}
		m.deptMgrs = append(m.deptMgrs, mgrs)
		fmt.Fprintf(&b, "d := Dictionary new. d at: 'Name' put: '%s'. d at: 'Budget' put: %d. d at: 'Managers' put: (Set new", m.deptName[i], m.deptBudget[i])
		for _, mg := range mgrs {
			fmt.Fprintf(&b, " add: '%s';", mg)
		}
		fmt.Fprintf(&b, " yourself). ds at: 'A%d' put: d. ", i)
	}
	b.WriteString("nil")
	steps = append(steps, step{src: b.String()})
	for base := 0; base < queryXEmps; base += 50 {
		var b strings.Builder
		b.WriteString("| es e | es := X!Employees. ")
		for i := base; i < min(base+50, queryXEmps); i++ {
			sal := 1000*int64(5+r.intn(40)) + 3 + 4*int64(r.intn(2))
			d1 := r.intn(queryDepts)
			ds := []int{d1}
			if r.intn(3) == 0 {
				if d2 := r.intn(queryDepts); d2 != d1 {
					ds = append(ds, d2)
				}
			}
			m.xSalary = append(m.xSalary, sal)
			m.xDepts = append(m.xDepts, ds)
			fmt.Fprintf(&b, "e := Dictionary new. e at: 'Id' put: %d. e at: 'Salary' put: %d. e at: 'Depts' put: (Set new", i+1, sal)
			for _, d := range ds {
				fmt.Fprintf(&b, " add: '%s';", m.deptName[d])
			}
			fmt.Fprintf(&b, " yourself). es at: 'E%d' put: e. ", i+1)
		}
		b.WriteString("nil")
		steps = append(steps, step{src: b.String()})
	}

	m.histInitial = make([]int64, queryHist)
	for i := range m.histInitial {
		m.histInitial[i] = querySalary(r)
	}
	steps = append(steps, step{src: fmt.Sprintf(
		"| h bs | h := World!hist. bs := %s. 1 to: %d do: [:i | h at: i put: (Employee new setId: i salary: (bs at: i))]. nil",
		intList(m.histInitial), queryHist), commit: true})
	for s := 0; s < queryHistSteps; s++ {
		var ups [][2]int64
		var b strings.Builder
		b.WriteString("| h | h := World!hist. ")
		for e := 1; e <= queryHist; e++ {
			if r.intn(3) == 0 {
				sal := querySalary(r)
				ups = append(ups, [2]int64{int64(e), sal})
				fmt.Fprintf(&b, "(h at: %d) salary: %d. ", e, sal)
			}
		}
		b.WriteString("nil")
		m.histUpdates = append(m.histUpdates, ups)
		steps = append(steps, step{src: b.String(), commit: true})
	}
	return steps, m
}

// salaryAt is employee e's salary at time t, given the commit times of
// the load (times[0]) and of each history step (times[1+s]).
func (m *queryModel) salaryAt(e int, t uint64, times []uint64) int64 {
	v := m.histInitial[e-1]
	for s, ups := range m.histUpdates {
		if times[1+s] > t {
			break
		}
		for _, u := range ups {
			if u[0] == int64(e) {
				v = u[1]
			}
		}
	}
	return v
}

// queryRows wraps a calculus query in a block that renders each row with
// render (an OPAL expression over row) followed by a space.
func queryRows(q, render string) string {
	return fmt.Sprintf("| r s | r := System query: '%s'. s := ''. r do: [:row | s := s , %s , ' ']. s", q, render)
}

func sortedTokens(toks []string) string {
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

// queryOps draws the read-only mix: 45% indexed equality, 15% indexed
// range, 5% §5.1 join, 35% @T path reads. times are the commit times of
// the load and the history steps, in order. The slow kinds (a join takes
// some 4 ms, ten times an equality query) slow down far more than the
// rest when the machine is contended, so their shares are kept small
// enough that throughput does not swing with them.
func queryOps(r *rng, m *queryModel, times []uint64, n int) [][]op {
	// Exact shares, shuffled: every run of a given length does the same
	// number of ops of each kind, whatever the seed.
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = i % 20
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	ops := make([]op, n)
	for i := range ops {
		switch k := kinds[i]; {
		case k < 9:
			sal := querySalary(r)
			if r.intn(5) != 0 {
				sal = m.empSalary[r.intn(queryEmps)]
			}
			q := fmt.Sprintf("{E: e} where (e in World!emps) and (e!salary = %d)", sal)
			ops[i] = m.empQuery("eq", q, func(s int64) bool { return s == sal })
		case k < 12:
			lo := querySalary(r)
			hi := lo + queryRangeSpan
			q := fmt.Sprintf("{E: e} where (e in World!emps) and (e!salary >= %d) and (e!salary < %d)", lo, hi)
			ops[i] = m.empQuery("range", q, func(s int64) bool { return s >= lo && s < hi })
		case k < 13:
			f := 5 * int64(1+r.intn(4))
			q := fmt.Sprintf("{Emp: e, Mgr: m} where (e in X!Employees) and (d in X!Departments) "+
				"[(m in d!Managers) and (d!Name in e!Depts) and (e!Salary > 0.%02d * d!Budget)]", f)
			var toks []string
			for e := range m.xSalary {
				for _, d := range m.xDepts[e] {
					if m.xSalary[e]*100 > f*m.deptBudget[d] {
						for _, mg := range m.deptMgrs[d] {
							toks = append(toks, fmt.Sprintf("%d/%s", e+1, mg))
						}
					}
				}
			}
			ops[i] = op{
				kind: "join", query: q, unordered: true, want: sortedTokens(toks),
				src: queryRows(q, "((row at: #Emp) at: 'Id') printString , '/' , (row at: #Mgr)"),
				// System query:, do:; per row 3 at:, printString, 3 commas
				// here and the one queryRows adds.
				sends: 2 + 8*len(toks),
			}
		default:
			e := 1 + r.intn(queryHist)
			t := times[0] + uint64(r.intn(int(times[len(times)-1]-times[0]+1)))
			p := fmt.Sprintf("World!hist!%d!salary@%d", e, t)
			ops[i] = op{kind: "at", src: p, path: p, want: strconv.FormatInt(m.salaryAt(e, t, times), 10)}
		}
		ops[i].abort = (i+1)%queryAbortEvery == 0
	}
	return [][]op{ops}
}

// empQuery builds an eq or range op over World!emps whose expected rows
// are the members whose salary satisfies match.
func (m *queryModel) empQuery(kind, q string, match func(int64) bool) op {
	var toks []string
	for i, s := range m.empSalary {
		if match(s) {
			toks = append(toks, strconv.Itoa(i+1))
		}
	}
	return op{
		kind: kind, query: q, unordered: true, want: sortedTokens(toks),
		src: queryRows(q, "(row at: #E) id printString"),
		// System query:, do:; per row at:, id, printString and 2 commas.
		sends: 2 + 5*len(toks),
	}
}
