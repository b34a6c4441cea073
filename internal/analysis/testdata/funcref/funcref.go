// Package funcref is the golden fixture for the funcref analyzer: a
// deliberately broken policy resource next to a correct one, proving
// the analyzer catches each defect class — unknown function, unknown
// modifier, unknown event type — that would otherwise be a silent
// no-op at runtime.
package funcref

// broken carries one specific defect per binding line.
var broken = []string{
	`swm.bindings: meta <Btn1Down> root : f.pangotoo "office"`, // want "unknown window manager function"
	`swm.bindings: mta <Btn2Down> window : f.raise`,            // want "unknown binding modifier"
	`swm.bindings: meta <Btn9Down> root : f.lower`,             // want "unknown binding event type"
}

// nailButton mirrors the templates' nail button binding with f.stick
// misspelled: the policy string compiles, and no test presses the nail.
var nailButton = `swm*button.nail.bindings: <Btn1> : f.stik` // want "unknown window manager function"

// clean bindings and prose pass: registered functions, registered
// modifiers, events the bindings parser accepts, and "f." used as a
// plain prefix in prose.
var clean = []string{
	`swm.bindings: meta <Btn1Down> root : f.pangoto "office"`,
	`any <Key>q : f.quit`,
	`shift ctrl <Btn3Up> title : f.zoom`,
	`the f. prefix marks window manager functions`,
}

// experimental is waived: both its modifier and its function exist only
// in a hypothetical downstream build.
var experimental = `exp <Btn1Down> root : f.teleport` //swm:ok fixture: a downstream build registers exp and f.teleport
