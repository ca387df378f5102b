// Fixture for the stale-directive check (analysis.RunAll): a
// //lint:ignore earns its place by suppressing a finding of a
// registered analyzer; one that does neither is itself a finding.
// TestStaleIgnore runs a toy analyzer, "nobad", that flags every call
// of bad, and expects what the want comments say.
package a

func bad() {}

func ok() {}

func f() {
	//lint:ignore nobad a live directive: it suppresses the call below
	bad()

	bad() //lint:ignore nobad live too, trailing the flagged line

	//lint:ignore all the wildcard is live while it suppresses something
	bad()

	//lint:ignore nobad nothing on this line or the next is flagged // want `nobad suppresses no finding`
	ok()

	//lint:ignore retired no analyzer of that name is registered // want `no registered analyzer "retired"`
	bad() // want `call of bad`

	//lint:ignore nobad,gone one live name, one unknown // want `no registered analyzer "gone"`
	bad()

	//lint:ignore all nothing here to suppress // want `all suppresses no finding`
	ok()
}
