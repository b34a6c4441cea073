package xproto

import "fmt"

// Major names an X request, as the one-byte major opcode does on the
// wire. The zero value, MajorNone, names no request. The others are the
// requests the simulated server implements, numbered densely rather
// than with the core protocol's opcodes so that they index fixed
// per-request arrays of NumMajors entries. The resize, move and raise
// shorthands have no major of their own: they are ConfigureWindow.
type Major uint8

const (
	MajorNone Major = iota
	MajorChangeProperty
	MajorChangeSaveSet
	MajorConfigureWindow
	MajorCreateWindow
	MajorDeleteProperty
	MajorDestroyWindow
	MajorGetGeometry
	MajorGetProperty
	MajorGetWindowAttributes
	MajorGrabButton
	MajorGrabKey
	MajorGrabPointer
	MajorKillClient
	MajorListProperties
	MajorMapWindow
	MajorQueryTree
	MajorReparentWindow
	MajorSelectInput
	MajorSendEvent
	MajorSetInputFocus
	MajorSetWindowFill
	MajorSetWindowLabel
	MajorShapeCombineRectangles
	MajorShapeQuery
	MajorShapeSelectInput
	MajorTranslateCoordinates
	MajorUnmapWindow

	// NumMajors is one past the last Major: the length of an array
	// indexed by Major.
	NumMajors
)

var majorNames = [NumMajors]string{
	MajorNone:                   "None",
	MajorChangeProperty:         "ChangeProperty",
	MajorChangeSaveSet:          "ChangeSaveSet",
	MajorConfigureWindow:        "ConfigureWindow",
	MajorCreateWindow:           "CreateWindow",
	MajorDeleteProperty:         "DeleteProperty",
	MajorDestroyWindow:          "DestroyWindow",
	MajorGetGeometry:            "GetGeometry",
	MajorGetProperty:            "GetProperty",
	MajorGetWindowAttributes:    "GetWindowAttributes",
	MajorGrabButton:             "GrabButton",
	MajorGrabKey:                "GrabKey",
	MajorGrabPointer:            "GrabPointer",
	MajorKillClient:             "KillClient",
	MajorListProperties:         "ListProperties",
	MajorMapWindow:              "MapWindow",
	MajorQueryTree:              "QueryTree",
	MajorReparentWindow:         "ReparentWindow",
	MajorSelectInput:            "SelectInput",
	MajorSendEvent:              "SendEvent",
	MajorSetInputFocus:          "SetInputFocus",
	MajorSetWindowFill:          "SetWindowFill",
	MajorSetWindowLabel:         "SetWindowLabel",
	MajorShapeCombineRectangles: "ShapeCombineRectangles",
	MajorShapeQuery:             "ShapeQuery",
	MajorShapeSelectInput:       "ShapeSelectInput",
	MajorTranslateCoordinates:   "TranslateCoordinates",
	MajorUnmapWindow:            "UnmapWindow",
}

// String returns the request's name ("ConfigureWindow"), the suffix of
// its xreq.* and xerr.op.* counters and its trace op. It does not
// allocate for a declared Major.
func (m Major) String() string {
	if m < NumMajors {
		return majorNames[m]
	}
	return fmt.Sprintf("Major(%d)", uint8(m))
}
