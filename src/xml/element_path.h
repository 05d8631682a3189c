#ifndef AXMLX_XML_ELEMENT_PATH_H_
#define AXMLX_XML_ELEMENT_PATH_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace axmlx::xml {

/// Element paths name an element by its position among elements, not by
/// node id, so they stay valid in any copy of a document that has the same
/// elements: a clone, a replica, or a `Serialize`→`Parse` round trip with
/// fresh ids. A path is the root element's name followed by one step per
/// level below it; a step is an element name plus the element's index among
/// its parent's element children of that name:
///
///   /DataP20                           the root
///   /DataP20/log[0]                    its first <log> child
///   /DataP20/calls[0]/axml:sc[7]       the eighth <axml:sc> under <calls>
///
/// Text and comment nodes are not counted, so merging adjacent text nodes
/// (which a round trip through text does) cannot shift a path.

/// Appends the path of element `id` to `*out`. Fails for an unknown id, a
/// node that is not an element, or a name a path cannot spell (one
/// containing '/', '[' or ']').
Status AppendElementPath(const Document& doc, NodeId id, std::string* out);

/// The element `path` names in `doc`. Every step's name is checked: a root
/// of another name, or a step with fewer same-name siblings than its index,
/// is kNotFound; a malformed path is kInvalidArgument. A path never
/// resolves to an element of a different name.
Result<NodeId> ResolveElementPath(const Document& doc, std::string_view path);

}  // namespace axmlx::xml

#endif  // AXMLX_XML_ELEMENT_PATH_H_
