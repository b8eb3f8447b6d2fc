//! C's `printf` formatting, once. The VM's `printf` builtin and the Lua
//! `string.format` parse and render directives here; they differ only in
//! where an argument comes from (registers and C strings, or Lua values).
//!
//! Supported: the flags `-` and `0`, a width, a precision, the length
//! modifiers `h l ll z` (ignored: every integer argument is 64 bits), and the
//! conversions `d i u x c p f e g s q %` with C's rules — `%q`, Lua's quoted
//! string, is the one addition.

/// The widest field and the highest precision a directive may ask for (C
/// obliges an implementation to 4095 characters per conversion).
const MAX_FIELD: usize = 4095;

/// Renders `fmt`, taking each directive's argument from `arg`.
///
/// `arg(conv, text)` supplies the next argument, as conversion `conv` wants
/// it: for `d i u x c p` the integer as 64 bits, for `f e g` the bits of an
/// `f64`, and for `s q` the argument's text appended to `text` (the returned
/// number is then unused). `bad` makes the caller's error out of a malformed
/// directive's description.
pub fn format_printf<E>(
    fmt: &str,
    arg: &mut dyn FnMut(u8, &mut String) -> Result<u64, E>,
    bad: &dyn Fn(String) -> E,
) -> Result<String, E> {
    let mut out = String::new();
    let mut rest = fmt;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let spec = &rest.as_bytes()[at + 1..];
        let mut i = 0;
        let (mut left, mut zero) = (false, false);
        while let Some(flag @ (b'-' | b'0')) = spec.get(i) {
            left |= *flag == b'-';
            zero |= *flag == b'0';
            i += 1;
        }
        let number = |i: &mut usize| -> Option<usize> {
            let digits = spec[*i..].iter().take_while(|b| b.is_ascii_digit()).count();
            let text = std::str::from_utf8(&spec[*i..*i + digits]).expect("ASCII digits");
            *i += digits;
            (digits > 0).then(|| text.parse().unwrap_or(usize::MAX))
        };
        let width = number(&mut i).unwrap_or(0);
        let prec = match spec.get(i) {
            Some(b'.') => {
                i += 1;
                Some(number(&mut i).unwrap_or(0))
            }
            _ => None,
        };
        // The format is the running program's: it does not get to size an
        // allocation.
        if width.max(prec.unwrap_or(0)) > MAX_FIELD {
            return Err(bad(format!("width or precision over {MAX_FIELD}")));
        }
        while let Some(b'h' | b'l' | b'z') = spec.get(i) {
            i += 1;
        }
        let conv = match spec.get(i) {
            Some(c) if c.is_ascii() => *c,
            Some(_) => return Err(bad("unsupported conversion".into())),
            None if i == 0 => return Err(bad("trailing '%'".into())),
            None => return Err(bad("incomplete conversion".into())),
        };
        rest = &rest[at + 1 + i + 1..];

        // The conversion as sign, body, and whether `0` may pad the body.
        let mut body = String::new();
        let (negative, zero_pads) = match conv {
            b'%' => {
                out.push('%');
                continue;
            }
            b'd' | b'i' | b'u' | b'x' => {
                let v = arg(conv, &mut body)?;
                let negative = conv != b'u' && conv != b'x' && (v as i64) < 0;
                body = match conv {
                    b'x' => format!("{v:x}"),
                    b'u' => v.to_string(),
                    _ => (v as i64).unsigned_abs().to_string(),
                };
                // An integer's precision is its least number of digits, and
                // switches the `0` flag off.
                let digits = prec.unwrap_or(1);
                if body.len() < digits {
                    body.insert_str(0, &"0".repeat(digits - body.len()));
                }
                (negative, prec.is_none())
            }
            b'f' | b'e' | b'g' => {
                let v = f64::from_bits(arg(conv, &mut body)?);
                body = float_body(conv, v.abs(), prec);
                (v.is_sign_negative() && !v.is_nan(), v.is_finite())
            }
            b'c' => {
                let v = arg(conv, &mut body)?;
                body.push(char::from(v as u8));
                (false, false)
            }
            b'p' => {
                body = format!("{:#x}", arg(conv, &mut body)?);
                (false, false)
            }
            b's' | b'q' => {
                arg(conv, &mut body)?;
                if conv == b'q' {
                    body = quoted(&body);
                } else if let Some((cut, _)) = prec.and_then(|p| body.char_indices().nth(p)) {
                    body.truncate(cut);
                }
                (false, false)
            }
            other => {
                return Err(bad(format!(
                    "unsupported conversion '%{}'",
                    char::from(other)
                )))
            }
        };
        let sign = if negative { "-" } else { "" };
        let fill = width.saturating_sub(sign.len() + body.len());
        let (before, between, after) = match (left, zero && zero_pads) {
            (true, _) => (0, 0, fill),
            (false, true) => (0, fill, 0),
            (false, false) => (fill, 0, 0),
        };
        out.extend(std::iter::repeat_n(' ', before));
        out.push_str(sign);
        out.extend(std::iter::repeat_n('0', between));
        out.push_str(&body);
        out.extend(std::iter::repeat_n(' ', after));
    }
    out.push_str(rest);
    Ok(out)
}

/// `%q`: `s` in double quotes, readable back by Lua, as Lua 5.1's
/// `addquoted` writes it: `"`, `\` and a newline behind a backslash, a
/// carriage return as `\r`, a zero byte as `\000`, every other byte as is.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' | '\n' => {
                out.push('\\');
                out.push(c);
            }
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\000"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `%f`, `%e` or `%g` of a non-negative `v`.
fn float_body(conv: u8, v: f64, prec: Option<usize>) -> String {
    if !v.is_finite() {
        return if v.is_nan() { "nan" } else { "inf" }.into();
    }
    // C's exponent form: Rust's, with a sign and at least two digits. Returns
    // the exponent too.
    let exp_form = |p: usize| {
        let s = format!("{v:.p$e}");
        let (mantissa, exp) = s.split_once('e').expect("`{:e}` writes an exponent");
        let exp: i32 = exp.parse().expect("`{:e}` writes a decimal exponent");
        let sign = if exp < 0 { '-' } else { '+' };
        (format!("{mantissa}e{sign}{:02}", exp.abs()), exp)
    };
    match conv {
        b'f' => {
            let p = prec.unwrap_or(6);
            format!("{v:.p$}")
        }
        b'e' => exp_form(prec.unwrap_or(6)).0,
        _ => {
            // `%g`: `p` significant digits, in whichever form is shorter for
            // the exponent `x` of the rounded value, trailing zeros removed.
            let p = prec.unwrap_or(6).max(1);
            let (e_form, x) = exp_form(p - 1);
            let s = if (-4..p as i32).contains(&x) {
                let decimals = (p as i32 - 1 - x) as usize;
                format!("{v:.decimals$}")
            } else {
                e_form
            };
            let (mantissa, exp) = match s.split_once('e') {
                Some((m, e)) => (m, Some(e)),
                None => (s.as_str(), None),
            };
            let mantissa = if mantissa.contains('.') {
                mantissa.trim_end_matches('0').trim_end_matches('.')
            } else {
                mantissa
            };
            match exp {
                Some(e) => format!("{mantissa}e{e}"),
                None => mantissa.to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::format_printf;

    /// One argument of a test row.
    #[derive(Clone, Copy)]
    enum A {
        I(i64),
        F(f64),
        S(&'static str),
    }
    use A::{F, I, S};

    fn render(fmt: &str, args: &[A]) -> Result<String, String> {
        let mut args = args.iter();
        format_printf(
            fmt,
            &mut |conv, text| match args.next() {
                Some(I(v)) => Ok(*v as u64),
                Some(F(v)) => Ok(v.to_bits()),
                Some(S(s)) => {
                    text.push_str(s);
                    Ok(0)
                }
                None => Err(format!("no argument for %{}", char::from(conv))),
            },
            &|msg| msg,
        )
    }

    /// Expected strings are what C's `printf` writes for the same call
    /// (ISO C 7.21.6.1; `%q` is Lua's).
    #[test]
    fn renders_as_c_does() {
        let table: &[(&str, &[A], &str)] = &[
            // What the workloads print.
            ("%d\n", &[I(-17)], "-17\n"),
            ("%lld", &[I(1 << 40)], "1099511627776"),
            ("%.1f", &[F(2.25)], "2.2"),
            ("%.1f", &[F(1234.56)], "1234.6"),
            // Flags and width.
            ("[%5d]", &[I(42)], "[   42]"),
            ("[%-5d]", &[I(42)], "[42   ]"),
            ("[%05d]", &[I(42)], "[00042]"),
            ("[%05d]", &[I(-42)], "[-0042]"),
            ("[%-05d]", &[I(42)], "[42   ]"),
            ("[%2d]", &[I(12345)], "[12345]"),
            ("[%.3d]", &[I(7)], "[007]"),
            ("[%05.3d]", &[I(7)], "[  007]"),
            ("[%5u]", &[I(7)], "[    7]"),
            ("[%04x]", &[I(255)], "[00ff]"),
            ("%llx", &[I(-1)], "ffffffffffffffff"),
            ("%zu %hd", &[I(3), I(4)], "3 4"),
            ("%c%c", &[I(72), I(105)], "Hi"),
            ("%p", &[I(4096)], "0x1000"),
            // Floats.
            ("%f", &[F(1.5)], "1.500000"),
            ("%8.3f|", &[F(-2.71859)], "  -2.719|"),
            ("%08.3f|", &[F(-2.71859)], "-002.719|"),
            ("%-8.2f|", &[F(2.5)], "2.50    |"),
            ("%.0f", &[F(0.5)], "0"),
            ("%e", &[F(1.5)], "1.500000e+00"),
            ("%e", &[F(0.0)], "0.000000e+00"),
            ("%.2e", &[F(123456.0)], "1.23e+05"),
            ("%e", &[F(-0.00012)], "-1.200000e-04"),
            ("%.3e", &[F(1e100)], "1.000e+100"),
            ("%g", &[F(0.0)], "0"),
            ("%g", &[F(1.5)], "1.5"),
            ("%g", &[F(100000.0)], "100000"),
            ("%g", &[F(1000000.0)], "1e+06"),
            ("%g", &[F(0.0001)], "0.0001"),
            ("%g", &[F(0.00001)], "1e-05"),
            ("%g", &[F(1.0 / 3.0)], "0.333333"),
            ("%g", &[F(999999.5)], "1e+06"),
            ("%g", &[F(-2.5)], "-2.5"),
            ("%.3g", &[F(2.71859)], "2.72"),
            ("%.0g", &[F(25.0)], "2e+01"),
            ("%10g|", &[F(0.5)], "       0.5|"),
            (
                "%f %e %g",
                &[F(f64::INFINITY), F(f64::NEG_INFINITY), F(f64::NAN)],
                "inf -inf nan",
            ),
            ("[%05f]", &[F(f64::INFINITY)], "[  inf]"),
            // Text.
            (
                "%s|%5s|%-5s|%.2s",
                &[S("a"), S("b"), S("c"), S("defg")],
                "a|    b|c    |de",
            ),
            ("%q", &[S("he\"y")], "\"he\\\"y\""),
            ("100%% sure", &[], "100% sure"),
            ("naïve — %d ✓", &[I(1)], "naïve — 1 ✓"),
            ("%s", &[S("日本")], "日本"),
        ];
        for (fmt, args, want) in table {
            assert_eq!(render(fmt, args).as_deref(), Ok(*want), "format {fmt:?}");
        }
    }

    #[test]
    fn malformed_directives_are_errors() {
        for (fmt, why) in [
            ("50%", "trailing '%'"),
            ("%-5", "incomplete conversion"),
            ("%.2l", "incomplete conversion"),
            ("%y", "unsupported conversion '%y'"),
            ("%é", "unsupported conversion"),
            ("%d", "no argument for %d"),
            ("%99999999999d", "width or precision over 4095"),
            ("%.4096f", "width or precision over 4095"),
        ] {
            assert_eq!(render(fmt, &[]), Err(why.to_string()), "format {fmt:?}");
        }
    }
}
