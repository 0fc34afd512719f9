//! RRSIG validity-window arithmetic (RFC 4034 §3.1.5).
//!
//! Inception and expiration are 32-bit counts of seconds since the Unix epoch
//! compared in *serial number arithmetic* (RFC 1982), so windows remain
//! correct across the 2038/2106 wraparound. The paper's Table 2 error classes
//! "Sig. not incepted" and "Signature expired" come straight out of this
//! check, triggered by VP clock skew and stale zone files respectively.

/// Outcome of checking a signature validity window at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureValidity {
    /// `inception <= now <= expiration`.
    Valid,
    /// The validation clock is before the inception time.
    NotYetIncepted,
    /// The validation clock is after the expiration time.
    Expired,
}

/// Errors for nonsensical windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityError {
    /// Expiration precedes inception (in serial-number order).
    InvertedWindow,
}

impl std::fmt::Display for ValidityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityError::InvertedWindow => write!(f, "expiration precedes inception"),
        }
    }
}

impl std::error::Error for ValidityError {}

/// Serial-number "a < b" over u32 (RFC 1982 with SERIAL_BITS = 32).
#[inline]
fn serial_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < 0x8000_0000
}

/// Check a validity window at `now` (seconds since Unix epoch, truncated to
/// 32 bits exactly as the wire format does).
pub fn check_window(
    inception: u32,
    expiration: u32,
    now: u32,
) -> Result<SignatureValidity, ValidityError> {
    if serial_lt(expiration, inception) {
        return Err(ValidityError::InvertedWindow);
    }
    if serial_lt(now, inception) {
        Ok(SignatureValidity::NotYetIncepted)
    } else if serial_lt(expiration, now) {
        Ok(SignatureValidity::Expired)
    } else {
        Ok(SignatureValidity::Valid)
    }
}

/// Convert a `YYYYMMDDHHmmSS` timestamp (RRSIG presentation form) to seconds
/// since the Unix epoch. Only dates from 1970 to 2105 are meaningful.
pub fn timestamp_from_ymd(s: &str) -> Option<u32> {
    if s.len() != 14 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let num = |r: std::ops::Range<usize>| s[r].parse::<u64>().ok();
    let (y, mo, d) = (num(0..4)?, num(4..6)?, num(6..8)?);
    let (h, mi, sec) = (num(8..10)?, num(10..12)?, num(12..14)?);
    if !(1970..=2105).contains(&y)
        || !(1..=12).contains(&mo)
        || d < 1
        || h > 23
        || mi > 59
        || sec > 59
    {
        return None;
    }
    if d > days_in_month(y, mo) {
        return None;
    }
    let days = days_from_civil(y as i64, mo as i64, d as i64);
    Some((days as u64 * 86400 + h * 3600 + mi * 60 + sec) as u32)
}

/// The UTC calendar date `(year, month, day)` of seconds-since-epoch `t`.
pub fn timestamp_to_date(t: u32) -> (u32, u32, u32) {
    let (y, m, d) = civil_from_days((t / 86400) as i64);
    (y as u32, m, d)
}

/// Render seconds-since-epoch as `YYYYMMDDHHmmSS`.
pub fn timestamp_to_ymd(t: u32) -> String {
    let secs = t % 86400;
    let (y, m, d) = timestamp_to_date(t);
    format!(
        "{:04}{:02}{:02}{:02}{:02}{:02}",
        y,
        m,
        d,
        secs / 3600,
        (secs % 3600) / 60,
        secs % 60
    )
}

fn days_in_month(y: u64, m: u64) -> u64 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y.is_multiple_of(4) && !y.is_multiple_of(100)) || y.is_multiple_of(400) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days from 1970-01-01 to y-m-d (Howard Hinnant's civil-days algorithm).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_states() {
        assert_eq!(check_window(100, 200, 150), Ok(SignatureValidity::Valid));
        assert_eq!(check_window(100, 200, 100), Ok(SignatureValidity::Valid));
        assert_eq!(check_window(100, 200, 200), Ok(SignatureValidity::Valid));
        assert_eq!(
            check_window(100, 200, 99),
            Ok(SignatureValidity::NotYetIncepted)
        );
        assert_eq!(check_window(100, 200, 201), Ok(SignatureValidity::Expired));
    }

    #[test]
    fn inverted_window_rejected() {
        assert_eq!(
            check_window(200, 100, 150),
            Err(ValidityError::InvertedWindow)
        );
    }

    #[test]
    fn serial_arithmetic_across_wrap() {
        // Window straddling the u32 wraparound.
        let inception = u32::MAX - 100;
        let expiration = 100u32;
        assert_eq!(
            check_window(inception, expiration, u32::MAX - 50),
            Ok(SignatureValidity::Valid)
        );
        assert_eq!(
            check_window(inception, expiration, 50),
            Ok(SignatureValidity::Valid)
        );
        assert_eq!(
            check_window(inception, expiration, 200),
            Ok(SignatureValidity::Expired)
        );
    }

    #[test]
    fn ymd_round_trips() {
        for ts in [
            "20231201050000",
            "20231118040000",
            "19700101000000",
            "20240229120000",
        ] {
            let t = timestamp_from_ymd(ts).unwrap();
            assert_eq!(timestamp_to_ymd(t), ts);
        }
    }

    #[test]
    fn ymd_known_value() {
        // 2023-07-03T00:00:00Z (the paper's measurement start).
        assert_eq!(timestamp_from_ymd("20230703000000"), Some(1_688_342_400));
    }

    #[test]
    fn ymd_rejects_garbage() {
        assert_eq!(timestamp_from_ymd("2023-12-01T05:00"), None);
        assert_eq!(timestamp_from_ymd("20231301050000"), None); // month 13
        assert_eq!(timestamp_from_ymd("20230230050000"), None); // Feb 30
        assert_eq!(timestamp_from_ymd("20231201056000"), None); // minute 60
        assert_eq!(timestamp_from_ymd(""), None);
    }

    #[test]
    fn leap_year_handling() {
        assert!(timestamp_from_ymd("20240229000000").is_some());
        assert_eq!(timestamp_from_ymd("20230229000000"), None);
        assert!(timestamp_from_ymd("20000229000000").is_some()); // 400-year rule
        assert_eq!(timestamp_from_ymd("21000229000000"), None); // 100-year rule
    }
}
