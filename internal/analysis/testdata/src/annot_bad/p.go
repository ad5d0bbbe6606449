// Package annot_bad misuses the annotation grammar itself; every
// mistake must surface as an unsuppressible "annotation" diagnostic.
package annot_bad

var x int

func f() {
	// want+1 annotation "has no justification"
	//tbtso:ignore escape
	x = 1
}

func g() {
	// want+1 annotation "needs a known check name"
	//tbtso:ignore bogus because reasons
	x = 2
}

//tbtso:frobnicate
func h() { // want-1 annotation "unknown directive"
	x = 3
}

//tbtso:fencefree
//tbtso:requires-fence
func clash() { // want annotation "annotated both" requires-fence "contains no fence call at all"
	x = 4
}

// Misspelt directives are errors wherever they appear, not only in a
// function's doc comment.
func trailing() {
	// want+1 annotation "unknown directive"
	x = 5 //tbtso:modle val=1
}

// want+2 annotation "unknown directive"
//
//tbtso:sharde
var y int
