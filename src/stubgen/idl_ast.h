// AST for the Circus interface definition language, a Courier-flavoured
// IDL (Section 7.1.1, Figure 7.2). An interface is a PROGRAM containing
// type, error, and procedure declarations:
//
//   NameServer: PROGRAM 26 VERSION 1 =
//   BEGIN
//     Name: TYPE = STRING;
//     Property: TYPE = RECORD [name: Name, value: SEQUENCE OF UNSPECIFIED];
//     AlreadyExists: ERROR = 0;
//     Register: PROCEDURE [name: Name, properties: Properties]
//       REPORTS [AlreadyExists] = 0;
//     Lookup: PROCEDURE [name: Name] RETURNS [properties: Properties]
//       REPORTS [NotFound] = 1;
//   END.
//
// Predefined types: BOOLEAN, CARDINAL (16-bit), LONG CARDINAL (32-bit),
// INTEGER (16-bit), LONG INTEGER (32-bit), STRING, UNSPECIFIED (16-bit).
// Constructed types: enumerations, arrays, records, variable-length
// sequences, and discriminated unions (CHOICE).
#ifndef SRC_STUBGEN_IDL_AST_H_
#define SRC_STUBGEN_IDL_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace circus::stubgen {

struct Type;
using TypePtr = std::shared_ptr<Type>;

// Position of a construct in the IDL source, carried through the AST so
// semantic diagnostics (duplicate numbers, undeclared references) can
// point at the offending declaration, not just fail.
struct SourcePos {
  int line = 0;    // 1-based; 0 = unknown
  int column = 0;  // 1-based byte offset in the line

  std::string ToString() const {
    return "line " + std::to_string(line) + ", column " +
           std::to_string(column);
  }
};

enum class Predefined {
  kBoolean,
  kCardinal,      // 16-bit unsigned
  kLongCardinal,  // 32-bit unsigned
  kInteger,       // 16-bit signed
  kLongInteger,   // 32-bit signed
  kString,
  kUnspecified,   // 16-bit, uninterpreted
};

struct NamedType {
  std::string name;  // reference to a TYPE declaration
  SourcePos pos;     // where the reference appears
};

struct SequenceType {
  TypePtr element;
};

struct ArrayType {
  size_t size = 0;
  TypePtr element;
};

struct Field {
  std::string name;
  TypePtr type;
};

struct RecordType {
  std::vector<Field> fields;
};

struct EnumerationType {
  std::vector<std::pair<std::string, int>> values;
};

struct ChoiceArm {
  std::string name;
  int tag = 0;
  TypePtr type;
};

struct ChoiceType {
  std::vector<ChoiceArm> arms;
};

struct Type {
  std::variant<Predefined, NamedType, SequenceType, ArrayType, RecordType,
               EnumerationType, ChoiceType>
      node;
};

struct TypeDecl {
  std::string name;
  TypePtr type;
  SourcePos pos;
};

struct ErrorDecl {
  std::string name;
  int code = 0;
  SourcePos pos;
};

struct ProcedureDecl {
  std::string name;
  int number = 0;
  std::vector<Field> arguments;
  std::vector<Field> results;
  std::vector<std::string> reports;  // names of ERROR declarations
  SourcePos pos;
};

struct Program {
  std::string name;
  int number = 0;
  int version = 0;
  std::vector<TypeDecl> types;
  std::vector<ErrorDecl> errors;
  std::vector<ProcedureDecl> procedures;

  const TypeDecl* FindType(const std::string& wanted) const {
    for (const TypeDecl& t : types) {
      if (t.name == wanted) {
        return &t;
      }
    }
    return nullptr;
  }
  const ErrorDecl* FindError(const std::string& wanted) const {
    for (const ErrorDecl& e : errors) {
      if (e.name == wanted) {
        return &e;
      }
    }
    return nullptr;
  }
};

}  // namespace circus::stubgen

#endif  // SRC_STUBGEN_IDL_AST_H_
