#ifndef DBG4ETH_COMMON_STRING_UTIL_H_
#define DBG4ETH_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <type_traits>
#include <vector>

namespace dbg4eth {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Lower-cases ASCII characters.
std::string ToLower(const std::string& s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends the decimal digits of an integer (std::to_chars: no locale, no
/// printf, no temporary string).
template <typename Integer>
void AppendDecimal(Integer value, std::string* out) {
  static_assert(std::is_integral_v<Integer>, "AppendDecimal takes integers");
  char buf[24];  // A sign and 20 digits cover every 64-bit value.
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends the shortest text that parses back to exactly `value`
/// (std::to_chars' round-trip form: fixed or scientific, whichever is
/// shorter, e.g. "0.1", "1e-04", "1234567.5"). Non-finite values append
/// "inf", "-inf" or "nan".
void AppendShortestDouble(double value, std::string* out);

/// Formats a double with the given precision, trimming to a fixed width
/// suitable for table output (e.g., "97.56").
std::string FormatFixed(double value, int precision = 2);

/// Pads/truncates to an exact width (left-aligned).
std::string PadRight(const std::string& s, size_t width);

/// Pads to an exact width (right-aligned).
std::string PadLeft(const std::string& s, size_t width);

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_STRING_UTIL_H_
