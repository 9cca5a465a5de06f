#include "sinks.hh"

#include <cctype>

namespace perfbench
{

bool
JsonShapeBuf::sealed() const
{
    return started_ && closed_ && !bad_ && !in_string_ && stack_.empty();
}

JsonShapeBuf::int_type
JsonShapeBuf::overflow(int_type ch)
{
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
        feed(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
}

std::streamsize
JsonShapeBuf::xsputn(const char *s, std::streamsize n)
{
    for (std::streamsize i = 0; i < n; ++i)
        feed(s[i]);
    return n;
}

void
JsonShapeBuf::feed(char c)
{
    ++bytes_;
    if (in_string_) {
        if (escape_)
            escape_ = false;
        else if (c == '\\')
            escape_ = true;
        else if (c == '"')
            in_string_ = false;
        return;
    }
    if (std::isspace(static_cast<unsigned char>(c)))
        return;
    if (closed_) {
        bad_ = true; // anything but whitespace after the value
        return;
    }
    switch (c) {
    case '"':
        in_string_ = true;
        break;
    case '{':
    case '[':
        if (c == '{' && stack_.size() == 2 && stack_[0] == '{' &&
            stack_[1] == '[')
            ++nested_objs_;
        stack_.push_back(c);
        started_ = true;
        break;
    case '}':
    case ']':
        if (stack_.empty() || stack_.back() != (c == '}' ? '{' : '[')) {
            bad_ = true;
            return;
        }
        stack_.pop_back();
        if (stack_.empty())
            closed_ = true;
        break;
    default:
        if (!started_)
            bad_ = true; // scalar before any container
        break;
    }
}

} // namespace perfbench
