// Strict parsing helpers for config values, command-line flags,
// endpoint fields and text queries.
#ifndef SRC_COMMON_PARSE_H_
#define SRC_COMMON_PARSE_H_

#include <algorithm>
#include <charconv>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"

namespace circus {

// `text` as one in-range decimal number of type T, read the way
// std::stoi reads it (leading whitespace and a sign are allowed) except
// that it must all be used: "abc", "5x", "80abc", "" and (for a
// uint16_t) "70000" are errors rather than a silent 0, a prefix or a
// wrap. `what` names the value in the error message ("port", "-k").
template <typename T = int>
StatusOr<T> ParseInt(std::string_view what, std::string_view text) {
  std::string_view digits = text.substr(
      std::min(text.find_first_not_of(" \t\n\v\f\r"), text.size()));
  if (digits.starts_with('+') && !digits.starts_with("+-")) {
    digits.remove_prefix(1);
  }
  T value{};
  const char* end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, value);
  const char* problem = nullptr;
  if (ec == std::errc::result_out_of_range) {
    problem = ": out of range: '";
  } else if (ec != std::errc()) {
    problem = ": not a number: '";
  } else if (stop != end) {
    problem = ": trailing junk in '";
  } else {
    return value;
  }
  return Status(ErrorCode::kInvalidArgument,
                std::string(what) + problem + std::string(text) + "'");
}

// ParseInt for a count, size, seed or port: a negative value is an error
// too. Sets *field only on success.
template <typename T>
Status ParseCount(std::string_view what, std::string_view text, T* field) {
  StatusOr<T> parsed = ParseInt<T>(what, text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (std::cmp_less(*parsed, 0)) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(what) + " must be non-negative");
  }
  *field = *parsed;
  return Status::Ok();
}

// `text` without its leading and trailing ASCII whitespace.
inline std::string_view Trim(std::string_view text) {
  const size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) {
    return {};
  }
  return text.substr(begin, text.find_last_not_of(" \t\r\n") - begin + 1);
}

}  // namespace circus

#endif  // SRC_COMMON_PARSE_H_
