//! Number rendering straight into the output buffer, without
//! `core::fmt`: integers as `{}` writes them, and shortest round-trip
//! `f64`s byte-identical to `{:?}`.
//!
//! The float digits come from Ryū (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the exact value `m · 2^e` and the two
//! halfway points to its neighbours are scaled by a 125-bit
//! approximation of `10^-q` (one multiply-shift each), then decimal
//! digits are stripped while the rounding interval still contains a
//! shorter number. The result is the shortest digit string that parses
//! back to the same `f64`, the closest such string to the exact value.
//! Two details make the output match the standard library's
//! Grisu/Dragon formatter digit for digit:
//!
//! * the interval's end points count as inside when the mantissa is
//!   even (round-half-even parsing lands on an even mantissa), and
//! * an exact tie between two shortest candidates rounds *up*
//!   (`1000000000000000.25` is written `1000000000000000.3`), where
//!   the reference Ryū rounds to even.
//!
//! The layout is `Debug`'s: plain decimal with at least one fraction
//! digit for `1e-4 <= |v| < 1e16` (and zero), `d.ddde<exp>` outside it.
//!
//! The two power-of-five tables are computed at compile time by the
//! `const fn`s at the bottom of this file from exact big-integer
//! arithmetic: `5^i` itself for the negative-exponent table, and
//! `floor(2^832 / 5^i)`, reached by dividing by five `i` times, for the
//! positive-exponent one.

// Every cast below narrows a value whose range the surrounding code
// bounds (digit counts, decimal exponents, table indices, the high
// half of a 128-bit product), as in Ryū's reference arithmetic.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

/// Bits kept of each `5^i` table entry.
const POW5_BITCOUNT: u32 = 125;
/// Bits kept of each `2^j / 5^i` table entry.
const POW5_INV_BITCOUNT: u32 = 125;
/// `q` never exceeds `log10(2^969) - 1 = 290` for `e2 >= 0`.
const POW5_INV_TABLE_LEN: usize = 291;
/// `-e2 - q` never exceeds `1076 - 751 = 325` for `e2 < 0`.
const POW5_TABLE_LEN: usize = 326;

/// `5^i` normalised to exactly 125 bits (truncated).
static POW5_SPLIT: [u128; POW5_TABLE_LEN] = pow5_table();
/// `floor(2^(bitlen(5^i) - 1 + 125) / 5^i) + 1`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_LEN] = pow5_inv_table();

/// `"00" "01" … "99"`, for writing two digits per division.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

/// Scratch length: the longest rendering (sign, `0.000`, 17 digits;
/// or sign, 17 digits, `.`, `e-324`) plus slack, so every copy below
/// can move a fixed 16 or 17 bytes and be inlined instead of calling
/// `memcpy` with a run-time length.
const MAX_LEN: usize = 48;

/// Appends `v`, which must be finite, exactly as `format!("{v:?}")`
/// would.
pub(crate) fn write_finite(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let mut buf = [0u8; MAX_LEN];
    let len = format_debug(v, &mut buf);
    out.push_str(std::str::from_utf8(&buf[..len]).expect("the writer emits ASCII only"));
}

/// Writes `v` into `buf` and returns the length.
fn format_debug(v: f64, buf: &mut [u8; MAX_LEN]) -> usize {
    let bits = v.to_bits();
    let mut len = usize::from(bits >> 63 != 0);
    buf[0] = b'-';
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        buf[len..len + 3].copy_from_slice(b"0.0");
        return len + 3;
    }
    let (mantissa, exp10) = shortest(ieee_mantissa, ieee_exponent);
    // Digits left-aligned, zero padded to a fixed 17 + 17 bytes.
    let mut digits = [b'0'; 34];
    let n = decimal_len(mantissa);
    write_digits(mantissa, &mut digits[..n]);
    if (1e-4..1e16).contains(&v.abs()) {
        // The decimal point sits `point` digits into the digit string;
        // in this range -3 <= point <= 16.
        let point = exp10 + n as i32;
        if point <= 0 {
            let zeros = point.unsigned_abs() as usize;
            buf[len..len + 5].copy_from_slice(b"0.000");
            len += 2 + zeros;
            buf[len..len + 17].copy_from_slice(&digits[..17]);
            len + n
        } else if (point as usize) < n {
            let point = point as usize;
            buf[len..len + 17].copy_from_slice(&digits[..17]);
            buf[len + point] = b'.';
            buf[len + point + 1..len + point + 18].copy_from_slice(&digits[point..point + 17]);
            len + n + 1
        } else {
            // Up to 16 digits then zeros (digits[n..] is all '0').
            let point = point as usize;
            buf[len..len + 17].copy_from_slice(&digits[..17]);
            buf[len + n..len + n + 17].copy_from_slice(&digits[17..]);
            buf[len + point..len + point + 2].copy_from_slice(b".0");
            len + point + 2
        }
    } else {
        buf[len] = digits[0];
        buf[len + 1] = b'.';
        buf[len + 2..len + 18].copy_from_slice(&digits[1..17]);
        len += if n > 1 { n + 1 } else { 1 };
        buf[len] = b'e';
        len += 1;
        let sci = exp10 + n as i32 - 1;
        if sci < 0 {
            buf[len] = b'-';
            len += 1;
        }
        let e = u64::from(sci.unsigned_abs());
        let en = decimal_len(e);
        write_digits(e, &mut buf[len..len + en]);
        len + en
    }
}

/// Appends `v` exactly as `format!("{v}")` would.
pub(crate) fn write_i64(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let magnitude = v.unsigned_abs();
    let start = buf.len() - decimal_len(magnitude);
    write_digits(magnitude, &mut buf[start..]);
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("digits are ASCII"));
}

/// Number of decimal digits of `v` (1 for 0).
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes the decimal digits of `v` right-aligned into `out`, which is
/// exactly `decimal_len(v)` bytes long. Eight-digit chunks are split
/// off first and written as two independent four-digit halves, which
/// keeps the chain of dependent divisions short.
fn write_digits(mut v: u64, out: &mut [u8]) {
    let mut end = out.len();
    while v >= 100_000_000 {
        let chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        write_pair(high / 100, &mut out[end - 8..end - 6]);
        write_pair(high % 100, &mut out[end - 6..end - 4]);
        write_pair(low / 100, &mut out[end - 4..end - 2]);
        write_pair(low % 100, &mut out[end - 2..end]);
        end -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        write_pair(v % 100, &mut out[end - 2..end]);
        v /= 100;
        end -= 2;
    }
    if v >= 10 {
        write_pair(v, &mut out[end - 2..end]);
    } else {
        out[end - 1] = b'0' + v as u8;
    }
}

/// Writes `v < 100` as two digits.
fn write_pair(v: u32, out: &mut [u8]) {
    let at = v as usize * 2;
    out.copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
}

/// `floor(e · log10(2))` for `0 <= e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(e · log10(5))` for `0 <= e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Bit length of `5^e`, i.e. `ceil(e · log2(5))` (1 for `e = 0`), for
/// `0 <= e <= 3528`.
const fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

fn multiple_of_pow2(v: u64, p: u32) -> bool {
    v.trailing_zeros() >= p
}

/// `(m · mul) >> j` for a 125-bit table entry `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exponent)` with `digits · 10^exponent`
/// inside the rounding interval of the non-zero finite `f64` with the
/// given raw fields, closest to the exact value, ties rounded up.
#[allow(clippy::similar_names, clippy::too_many_lines)]
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    const BIAS_AND_SHIFT: i32 = 1023 + 52 + 2;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS_AND_SHIFT, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS_AND_SHIFT,
            (1 << 52) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The interval is [mm, mp] around mv, all scaled by 4 so the
    // halfway points are integers; the lower gap halves at a power of
    // two (except for the smallest normal).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    let mut vr_is_trailing_zeros = false;
    if e2 >= 0 {
        let e2 = e2.unsigned_abs();
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q) - 1;
        let j = q + k - e2;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 21 {
            // Only one of mp, mv, mm can be a multiple of 5, if any.
            if mv % 5 == 0 {
                vr_is_trailing_zeros = multiple_of_pow5(mv, q);
            } else if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let neg_e2 = e2.unsigned_abs();
        let q = log10_pow5(neg_e2) - u32::from(neg_e2 > 1);
        e10 = q as i32 + e2;
        let i = neg_e2 - q;
        let j = q + POW5_BITCOUNT - pow5_bits(i);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mv = 4·m2 has at least two trailing zero bits; mm has
            // one iff mm_shift is 1; mp = mv + 2 has exactly one.
            vr_is_trailing_zeros = true;
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        } else if q < 63 {
            vr_is_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    let mut removed = 0i32;
    let output = if vm_is_trailing_zeros || vr_is_trailing_zeros {
        // Rare path: the scaled lower bound may be exact, so digits are
        // also stripped while it ends in zero (it is then inside the
        // interval, or not, exactly as written).
        let mut last_removed_digit = 0u64;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // An exact `…5000` remainder is a tie, and `>= 5` rounds it up:
        // the standard library's choice, where Ryū rounds to even.
        vr + u64::from(
            (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5,
        )
    } else {
        // Common path: no exact intermediate values, so the removed
        // digits round up iff they are at least half a unit. Whether
        // `vp / 10^k > vm / 10^k` holds is monotone in k, so digits can
        // be removed eight, four, two and then one at a time.
        let mut round_up = false;
        for (chunk, digits) in [(100_000_000, 8), (10_000, 4), (100, 2), (10, 1)] {
            while vp / chunk > vm / chunk {
                round_up = vr % chunk >= chunk / 2;
                vr /= chunk;
                vp /= chunk;
                vm /= chunk;
                removed += digits;
            }
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Little-endian 64-bit limbs: 896 bits, enough for `2^832`.
const LIMBS: usize = 14;
type Big = [u64; LIMBS];

/// The exponent of the power of two every inverse entry is cut from;
/// at least `bitlen(5^290) - 1 + 125 = 798`.
const INV_NUMERATOR_BITS: u32 = 832;

const fn big_bit_len(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + 64 - x[i].leading_zeros();
        }
    }
    0
}

const fn big_mul_small(x: &mut Big, k: u64) {
    let mut carry: u128 = 0;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * k as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "table bignum overflow");
}

const fn big_div_small(x: &mut Big, k: u64) {
    let mut rem: u128 = 0;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        x[i] = (cur / k as u128) as u64;
        rem = cur % k as u128;
    }
}

const fn big_limb(x: &Big, i: usize) -> u64 {
    if i < LIMBS {
        x[i]
    } else {
        0
    }
}

/// The 128 bits of `x >> shift`.
const fn big_shr_low128(x: &Big, shift: u32) -> u128 {
    let w = (shift / 64) as usize;
    let b = shift % 64;
    let (l0, l1, l2) = (big_limb(x, w), big_limb(x, w + 1), big_limb(x, w + 2));
    let (lo, hi) = if b == 0 {
        (l0, l1)
    } else {
        ((l0 >> b) | (l1 << (64 - b)), (l1 >> b) | (l2 << (64 - b)))
    };
    lo as u128 | ((hi as u128) << 64)
}

const fn pow5_table() -> [u128; POW5_TABLE_LEN] {
    let mut table = [0u128; POW5_TABLE_LEN];
    let mut pow5: Big = [0; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_LEN {
        let len = big_bit_len(&pow5);
        assert!(len == pow5_bits(i as u32), "pow5_bits disagrees with 5^i");
        table[i] = if len > POW5_BITCOUNT {
            big_shr_low128(&pow5, len - POW5_BITCOUNT)
        } else {
            big_shr_low128(&pow5, 0) << (POW5_BITCOUNT - len)
        };
        big_mul_small(&mut pow5, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_TABLE_LEN] {
    let mut table = [0u128; POW5_INV_TABLE_LEN];
    // floor(2^N / 5^i), kept exact by dividing by 5 once per entry:
    // floor(floor(a / b) / c) = floor(a / (b·c)).
    let mut quotient: Big = [0; LIMBS];
    quotient[(INV_NUMERATOR_BITS / 64) as usize] = 1 << (INV_NUMERATOR_BITS % 64);
    let mut i = 0;
    while i < POW5_INV_TABLE_LEN {
        let j = pow5_bits(i as u32) - 1 + POW5_INV_BITCOUNT;
        // floor(2^j / 5^i) = floor(2^N / 5^i) >> (N - j).
        table[i] = big_shr_low128(&quotient, INV_NUMERATOR_BITS - j) + 1;
        big_div_small(&mut quotient, 5);
        i += 1;
    }
    table
}

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// `SplitMix64`: a seeded, dependency-free stream of bit patterns.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Compares the writer with the `{:?}` oracle on one value.
    struct Oracle {
        ours: String,
        std: String,
    }

    impl Oracle {
        fn new() -> Self {
            Self {
                ours: String::new(),
                std: String::new(),
            }
        }

        fn check(&mut self, v: f64) {
            if !v.is_finite() {
                return;
            }
            self.ours.clear();
            self.std.clear();
            write_finite(&mut self.ours, v);
            write!(self.std, "{v:?}").expect("writing to a String cannot fail");
            assert_eq!(self.ours, self.std, "bits {:#018x}", v.to_bits());
        }
    }

    /// Checks `count` seeded random bit patterns, plus patterns with a
    /// random mantissa under each small negative binary exponent, where
    /// exact ties between two shortest candidates occur.
    fn sweep(seed: u64, count: usize) {
        let mut rng = SplitMix(seed);
        let mut oracle = Oracle::new();
        for _ in 0..count {
            let bits = rng.next();
            oracle.check(f64::from_bits(bits));
            // Exponent field 1071..=1075: ulp from 2^-4 to 2^0.
            let tie_prone = (bits & 0x800f_ffff_ffff_ffff) | ((1071 + (bits >> 60) % 5) << 52);
            oracle.check(f64::from_bits(tie_prone));
        }
    }

    #[test]
    fn floats_match_debug_on_a_million_seeded_patterns() {
        sweep(2014, 1_000_000);
    }

    /// The 10⁷-pattern sweep; `ci.sh` runs it in release with
    /// `--ignored`.
    #[test]
    #[ignore = "ten million patterns: run in release"]
    fn floats_match_debug_on_ten_million_seeded_patterns() {
        sweep(1403_6420, 10_000_000);
    }

    #[test]
    fn floats_match_debug_on_edge_values() {
        let mut oracle = Oracle::new();
        let mut check_around = |v: f64| {
            for x in [v.next_down(), v, v.next_up()] {
                oracle.check(x);
                oracle.check(-x);
            }
        };
        // Every power of ten, and both neighbours of each.
        for k in -323..=308 {
            check_around(format!("1e{k}").parse().expect("a valid literal"));
        }
        // Every power of two, normal and subnormal.
        for k in 0..2046u64 {
            check_around(f64::from_bits(k << 52));
        }
        for k in 0..52 {
            check_around(f64::from_bits(1 << k));
        }
        // Layout boundaries, zeros, the subnormal range ends and the
        // extremes.
        for v in [
            1e-4,
            1e16,
            0.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            1.0,
            0.1,
            0.3,
            2.5e-10,
            1.234_567_890_123_456_8e17,
            1e15 + 0.25,
            9_007_199_254_740_993.0,
        ] {
            check_around(v);
        }
        // Small integers and short decimals, the bulk of solver output.
        for i in 0..20_000 {
            check_around(f64::from(i));
            check_around(f64::from(i) / 1000.0);
            check_around(f64::from(i) * 1e-9);
        }
    }

    #[test]
    fn layout_matches_the_debug_contract() {
        let render = |v: f64| {
            let mut out = String::new();
            write_finite(&mut out, v);
            out
        };
        assert_eq!(render(1.0), "1.0");
        assert_eq!(render(-0.0), "-0.0");
        assert_eq!(render(0.0001), "0.0001");
        assert_eq!(render(1e-5), "1e-5");
        assert_eq!(render(1e15), "1000000000000000.0");
        assert_eq!(render(1e16), "1e16");
        assert_eq!(render(1.234_567_890_123_456_8e17), "1.2345678901234568e17");
        assert_eq!(render(5e-324), "5e-324");
        assert_eq!(render(f64::MAX), "1.7976931348623157e308");
        assert_eq!(render(1e15 + 0.25), "1000000000000000.3");
    }

    #[test]
    fn integers_match_display() {
        let mut rng = SplitMix(7);
        let mut values = vec![0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1];
        let mut p = 1i64;
        for _ in 0..18 {
            p *= 10;
            values.extend([p - 1, p, p + 1, -p]);
        }
        values.extend((0..10_000).map(|_| rng.next() as i64));
        values.extend((0..10_000).map(|_| (rng.next() >> (rng.next() % 64)) as i64));
        for v in values {
            let mut out = String::new();
            write_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn tables_hold_the_exact_powers_where_they_fit() {
        // 5^i < 2^128 for i <= 55: the entry is 5^i shifted to 125 bits.
        for (i, &entry) in (0u32..).zip(POW5_SPLIT.iter().take(56)) {
            let pow5 = 5u128.pow(i);
            let len = 128 - pow5.leading_zeros();
            assert_eq!(len, pow5_bits(i));
            let expected = if len > POW5_BITCOUNT {
                pow5 >> (len - POW5_BITCOUNT)
            } else {
                pow5 << (POW5_BITCOUNT - len)
            };
            assert_eq!(entry, expected, "5^{i}");
        }
        // 2^j / 5^i fits u128 arithmetic for i = 0 and i = 1 only:
        // 2^125 + 1 and floor(2^127 / 5) + 1.
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        assert_eq!(POW5_INV_SPLIT[1], (1u128 << 127) / 5 + 1);
    }
}
